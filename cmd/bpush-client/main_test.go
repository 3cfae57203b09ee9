package main

import (
	"strings"
	"testing"
	"time"

	"bpush/internal/netcast"
	"bpush/internal/workload"
)

func startStation(t *testing.T) *netcast.Station {
	t.Helper()
	st, err := netcast.NewStation(netcast.StationConfig{
		Addr:     "127.0.0.1:0",
		DBSize:   60,
		Versions: 4,
		Workload: workload.ServerConfig{
			DBSize: 60, UpdateRange: 30, Theta: 0.95,
			TxPerCycle: 2, UpdatesPerCycle: 3, ReadsPerUpdate: 2,
		},
		Interval: 5 * time.Millisecond,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	return st
}

// TestParseScheme checks the -scheme flag: both short aliases select
// their scheme against a live station, and an unknown name is refused
// before the client dials.
func TestParseScheme(t *testing.T) {
	st := startStation(t)
	for _, tt := range []struct{ give, want string }{
		{give: "mv", want: "(multiversion+cache)"},
		{give: "mc", want: "(mv-cache)"},
	} {
		var out strings.Builder
		if err := run([]string{"-addr", st.Addr(), "-scheme", tt.give, "-ops", "2", "-queries", "1", "-think", "1"}, &out); err != nil {
			t.Fatalf("-scheme %s: %v", tt.give, err)
		}
		if !strings.Contains(out.String(), tt.want) {
			t.Errorf("-scheme %s: summary lacks %s:\n%s", tt.give, tt.want, out.String())
		}
	}
	var out strings.Builder
	if err := run([]string{"-addr", st.Addr(), "-scheme", "bogus"}, &out); err == nil || !strings.Contains(err.Error(), `unknown scheme "bogus"`) {
		t.Errorf("-scheme bogus: err = %v, want unknown scheme", err)
	}
}

func TestRunAgainstLiveStation(t *testing.T) {
	st := startStation(t)
	var out strings.Builder
	err := run([]string{
		"-addr", st.Addr(), "-scheme", "multiversion", "-ops", "3", "-queries", "4", "-think", "1",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "done: ") {
		t.Errorf("missing summary line:\n%s", got)
	}
	if !strings.Contains(got, "COMMIT") {
		t.Errorf("no committed query against a multiversion stream:\n%s", got)
	}
}

// TestRunRejectsMoreOpsThanItems checks that a query asking for more
// distinct items than the station carries is refused instead of drawing
// forever.
func TestRunRejectsMoreOpsThanItems(t *testing.T) {
	st := startStation(t)
	var out strings.Builder
	err := run([]string{"-addr", st.Addr(), "-ops", "61", "-queries", "1"}, &out)
	if err == nil || !strings.Contains(err.Error(), "exceeds ReadRange") {
		t.Errorf("-ops 61 against 60 items: err = %v, want exceeds ReadRange", err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-scheme", "nope"}, &out); err == nil {
		t.Error("unknown scheme accepted")
	}
	if err := run([]string{"-addr", "127.0.0.1:1"}, &out); err == nil {
		t.Error("unreachable station accepted")
	}
}
