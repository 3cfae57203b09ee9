package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bpush/internal/obs"
)

// TestParseScheme checks the -scheme flag: every name and alias selects
// its scheme in a small run, and an unknown name is refused.
func TestParseScheme(t *testing.T) {
	tests := []struct {
		give string
		want string // the run's "scheme" line; empty = must be refused
	}{
		{give: "inv-only", want: "inv-only+cache"},
		{give: "vcache", want: "inv-only+vcache"},
		{give: "multiversion", want: "multiversion+cache"},
		{give: "mv", want: "multiversion+cache"},
		{give: "mv-cache", want: "mv-cache"},
		{give: "mc", want: "mv-cache"},
		{give: "sgt", want: "sgt+cache"},
		{give: "2pl"},
		{give: ""},
	}
	for _, tt := range tests {
		var out strings.Builder
		err := run([]string{
			"-scheme", tt.give, "-cache", "10", "-db", "60", "-update-range", "30",
			"-read-range", "60", "-updates", "3", "-queries", "4", "-warmup", "1",
		}, &out)
		if tt.want == "" {
			if err == nil || !strings.Contains(err.Error(), "unknown scheme") {
				t.Errorf("-scheme %q: err = %v, want unknown scheme", tt.give, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("-scheme %q: %v", tt.give, err)
			continue
		}
		if line := "scheme            " + tt.want + "\n"; !strings.Contains(out.String(), line) {
			t.Errorf("-scheme %q: output lacks %q:\n%s", tt.give, line, out.String())
		}
	}
}

func TestRunSmallSimulation(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-scheme", "sgt", "-cache", "20", "-db", "120", "-update-range", "60",
		"-read-range", "120", "-updates", "6", "-queries", "40", "-warmup", "5",
		"-check",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"scheme            sgt+cache", "abort rate", "latency", "oracle"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunFleetSimulation(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-scheme", "inv-only", "-db", "120", "-update-range", "60",
		"-read-range", "120", "-updates", "6", "-queries", "40", "-warmup", "5",
		"-clients", "4", "-parallel", "2",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"clients           4", "mean abort rate", "server cycles"} {
		if !strings.Contains(got, want) {
			t.Errorf("fleet output missing %q:\n%s", want, got)
		}
	}
}

func TestRunFleetDeterministicAcrossWorkers(t *testing.T) {
	runWith := func(parallel string) string {
		t.Helper()
		var out strings.Builder
		err := run([]string{
			"-scheme", "sgt", "-cache", "20", "-db", "120", "-update-range", "60",
			"-read-range", "120", "-updates", "6", "-queries", "40", "-warmup", "5",
			"-clients", "5", "-parallel", parallel,
		}, &out)
		if err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	if serial, par := runWith("1"), runWith("8"); serial != par {
		t.Errorf("fleet output depends on worker count:\nserial:\n%s\nparallel:\n%s", serial, par)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-scheme", "nope"}, &out); err == nil {
		t.Error("unknown scheme accepted")
	}
	if err := run([]string{"-queries", "0"}, &out); err == nil {
		t.Error("zero queries accepted")
	}
	if err := run([]string{"-no-such-flag"}, &out); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestTraceFlagWritesReadableTrace(t *testing.T) {
	runTraced := func(path string, extra ...string) []byte {
		t.Helper()
		args := append([]string{
			"-scheme", "inv-only", "-cache", "20", "-db", "120", "-update-range", "60",
			"-read-range", "120", "-updates", "6", "-queries", "40", "-warmup", "5",
			"-trace", path,
		}, extra...)
		var out strings.Builder
		if err := run(args, &out); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), "trace             "+path) {
			t.Fatalf("trace path not reported:\n%s", out.String())
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	dir := t.TempDir()
	single := runTraced(filepath.Join(dir, "single.jsonl"))
	events, err := obs.ReadJSONL(bytes.NewReader(single))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("empty trace")
	}
	// The producer stream leads; the client stream opens with run-begin.
	if events[0].Type != obs.TypeCycleBegin {
		t.Errorf("first event = %q, want producer cycle-begin", events[0].Type)
	}

	// Same seed, same flags: byte-identical files; a parallel fleet trace
	// is identical to a serial one.
	again := runTraced(filepath.Join(dir, "again.jsonl"))
	if !bytes.Equal(single, again) {
		t.Error("same-seed traces differ")
	}
	serial := runTraced(filepath.Join(dir, "serial.jsonl"), "-clients", "3", "-parallel", "1")
	parallel := runTraced(filepath.Join(dir, "parallel.jsonl"), "-clients", "3", "-parallel", "4")
	if !bytes.Equal(serial, parallel) {
		t.Error("fleet trace depends on worker count")
	}
}

// TestRunDurableRestart drives the CLI's -log-dir path end to end: a
// first run leaves a durable log behind, and a second run over the same
// directory resumes it (serving the recorded prefix from disk) with
// identical client-visible output.
func TestRunDurableRestart(t *testing.T) {
	dir := t.TempDir()
	args := func(extra ...string) []string {
		base := []string{
			"-scheme", "vcache", "-cache", "20", "-db", "120", "-update-range", "60",
			"-read-range", "120", "-updates", "6", "-queries", "30", "-warmup", "5",
		}
		return append(base, extra...)
	}
	var plain strings.Builder
	if err := run(args(), &plain); err != nil {
		t.Fatal(err)
	}
	var first strings.Builder
	if err := run(args("-log-dir", dir, "-mem-cycles", "8", "-snapshot-every", "10"), &first); err != nil {
		t.Fatal(err)
	}
	if first.String() != plain.String() {
		t.Error("durable run output differs from memory-only run")
	}
	var second strings.Builder
	if err := run(args("-log-dir", dir, "-mem-cycles", "8", "-snapshot-every", "10"), &second); err != nil {
		t.Fatal(err)
	}
	if second.String() != plain.String() {
		t.Error("resumed run output differs from memory-only run")
	}
	// The durable knobs require -log-dir; the validation error surfaces.
	if err := run(args("-mem-cycles", "8"), &plain); err == nil {
		t.Error("-mem-cycles without -log-dir accepted")
	}
}
