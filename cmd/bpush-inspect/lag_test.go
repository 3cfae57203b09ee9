package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"bpush/internal/core"
	"bpush/internal/netcast"
	"bpush/internal/obs"
	"bpush/internal/stats"
	"bpush/internal/workload"
)

// writeLagSnapshot builds a registry with every tier populated and
// writes its snapshot to a temp file, as curl saves /metricsz.
func writeLagSnapshot(t *testing.T) string {
	t.Helper()
	reg := obs.NewRegistry()
	nsBounds := []float64{1e3, 1e4, 1e5, 1e6, 1e7}
	for i, tier := range []string{"span.commit_ns", "span.on_air_ns"} {
		h := reg.Histogram(tier, nsBounds)
		for j := 0; j < 10; j++ {
			h.Observe(float64((i + 1) * (j + 1) * 1500))
		}
	}
	for shard := 0; shard < 2; shard++ {
		h := reg.Histogram("net.shard."+string(rune('0'+shard))+".drain_ns", nsBounds)
		h.Observe(2e4)
		h.Observe(5e4)
	}
	reg.Histogram("net.queue_depth", []float64{0, 1, 2, 4}).Observe(1)
	age := reg.Histogram("staleness.multiversion.age_cycles", []float64{0, 1, 2, 4, 8})
	for _, v := range []float64{0, 1, 1, 2, 3, 5} {
		age.Observe(v)
	}
	reg.Histogram("staleness.multiversion.span_cycles", []float64{0, 1, 2, 4, 8}).Observe(2)
	reg.Histogram("staleness.multiversion.lag_cycles", []float64{0, 1, 2, 4, 8}).Observe(1)
	return writeJSON(t, "metricsz.json", reg.Snapshot())
}

// writeJSON marshals doc into a temp file and returns its path.
func writeJSON(t *testing.T, name string, doc any) string {
	t.Helper()
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// tierRows maps each row of lag's tier table to its n column.
func tierRows(out string) map[string]string {
	rows := map[string]string{}
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) >= 2 && slices.Contains(obs.SpanTiers, f[0]) {
			rows[f[0]] = f[1]
		}
	}
	return rows
}

// TestLagSubcommandSnapshots: a /metricsz snapshot renders the full
// attribution — every tier in pipeline order, the merged drain tier,
// queue depth, and per-scheme staleness.
func TestLagSubcommandSnapshots(t *testing.T) {
	t.Run("metricsz", func(t *testing.T) {
		path := writeLagSnapshot(t)
		var out strings.Builder
		if err := run([]string{"lag", path}, &out); err != nil {
			t.Fatal(err)
		}
		got := out.String()
		for _, want := range []string{
			"latency attribution", "commit", "on-air", "drain",
			"queue depth", "staleness by scheme", "multiversion",
		} {
			if !strings.Contains(got, want) {
				t.Errorf("lag output missing %q:\n%s", want, got)
			}
		}
		if i, j, k := strings.Index(got, "commit"), strings.Index(got, "on-air"), strings.Index(got, "drain"); i > j || j > k {
			t.Errorf("tiers out of pipeline order:\n%s", got)
		}
		// The drain tier merges both shards: n=4.
		if n := tierRows(got)[obs.SpanDrain]; n != "4" {
			t.Errorf("drain row n = %q, want 4 (both shards merged):\n%s", n, got)
		}
	})
}

// TestLagFromStationSnapshot runs lag on the snapshot a live sampled
// station writes: a few manual ticks to one draining in-process
// subscriber, then Registry().Snapshot() marshalled the way /metricsz
// serves it. Each per-cycle tier carries exactly one sample per tick.
func TestLagFromStationSnapshot(t *testing.T) {
	st, err := netcast.NewStation(netcast.StationConfig{
		Addr:     "127.0.0.1:0",
		DBSize:   50,
		Versions: 2,
		Workload: workload.ServerConfig{
			DBSize: 50, UpdateRange: 25, Theta: 0.95,
			TxPerCycle: 2, UpdatesPerCycle: 4, ReadsPerUpdate: 2,
		},
		Seed:   3,
		Sample: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st.Close() }()
	conn, err := st.Cast().SubscribeLocal()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	go func() { _, _ = io.Copy(io.Discard, conn) }()

	const ticks = 4
	for i := 0; i < ticks; i++ {
		if err := st.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	// A shard writer records a frame's drain sample before the frame
	// leaves QueueDepth, so an empty queue means every sample is in.
	for deadline := time.Now().Add(5 * time.Second); st.Cast().QueueDepth() != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d after 5s", st.Cast().QueueDepth())
		}
		time.Sleep(time.Millisecond)
	}
	snap := st.Registry().Snapshot()

	var out strings.Builder
	if err := run([]string{"lag", writeJSON(t, "metricsz.json", snap)}, &out); err != nil {
		t.Fatal(err)
	}
	rows := tierRows(out.String())
	for _, tier := range []string{obs.SpanCommit, obs.SpanOnAir, obs.SpanDrain} {
		if n := rows[tier]; n != strconv.Itoa(ticks) {
			t.Errorf("%s row n = %q, want %d:\n%s", tier, n, ticks, out.String())
		}
	}
}

// TestLagSubcommandExactQuantiles pins the offline/online equivalence:
// the rendered quantiles equal those recomputed from the source
// histogram directly, because the snapshot round-trips bucket-exactly.
func TestLagSubcommandExactQuantiles(t *testing.T) {
	h, err := stats.NewHistogram([]float64{1e3, 1e4, 1e5, 1e6, 1e7})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	rh := reg.Histogram("span.commit_ns", []float64{1e3, 1e4, 1e5, 1e6, 1e7})
	for j := 1; j <= 100; j++ {
		v := float64(j * 7919)
		h.Add(v)
		rh.Observe(v)
	}
	snap := reg.Snapshot()
	restored, err := snap.Histograms["span.commit_ns"].Restore()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if got, want := restored.Quantile(q), h.Quantile(q); got != want {
			t.Errorf("q%.2f = %g after round trip, want %g", q, got, want)
		}
	}
}

// TestLagSubcommandTrace: a sim JSONL trace renders the per-scheme
// staleness table from its staleness events.
func TestLagSubcommandTrace(t *testing.T) {
	path := writeTrace(t, core.Options{Kind: core.KindMVBroadcast})
	var out strings.Builder
	if err := run([]string{"lag", path}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "staleness by scheme") || !strings.Contains(got, "multiversion") {
		t.Errorf("trace lag output missing staleness table:\n%s", got)
	}
}

func TestLagSubcommandErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"lag"}, &out); err == nil {
		t.Error("missing file accepted")
	}
	if err := run([]string{"lag", filepath.Join(t.TempDir(), "nope.json")}, &out); err == nil {
		t.Error("nonexistent file accepted")
	}
	junk := filepath.Join(t.TempDir(), "junk.bin")
	if err := os.WriteFile(junk, []byte("not a snapshot, not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"lag", junk}, &out); err == nil {
		t.Error("junk input accepted")
	}
}
