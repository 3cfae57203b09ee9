package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bpush/internal/core"
	"bpush/internal/obs"
	"bpush/internal/stats"
)

// writeLagSnapshot builds a registry with every tier populated, wraps it
// the way a bpush-cast -load report does, and writes it to a temp file.
func writeLagSnapshot(t *testing.T, wrap string) string {
	t.Helper()
	reg := obs.NewRegistry()
	nsBounds := []float64{1e3, 1e4, 1e5, 1e6, 1e7}
	for i, tier := range []string{"span.commit_ns", "span.on_air_ns", "span.receive_ns", "span.read_ns"} {
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

	snap := reg.Snapshot()
	var doc any
	switch wrap {
	case "load-report":
		doc = map[string]any{"mode": "sharded", "metrics": snap}
	case "metricsz":
		doc = snap
	default:
		t.Fatalf("unknown wrap %q", wrap)
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), wrap+".json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLagSubcommandSnapshots: both snapshot shapes (load report and bare
// /metricsz) render the full attribution — every tier in pipeline
// order, the merged drain tier, queue depth, and per-scheme staleness.
func TestLagSubcommandSnapshots(t *testing.T) {
	for _, wrap := range []string{"load-report", "metricsz"} {
		t.Run(wrap, func(t *testing.T) {
			path := writeLagSnapshot(t, wrap)
			var out strings.Builder
			if err := run([]string{"lag", path}, &out); err != nil {
				t.Fatal(err)
			}
			got := out.String()
			for _, want := range []string{
				"latency attribution", "commit", "on-air", "drain", "receive", "read",
				"queue depth", "staleness by scheme", "multiversion",
			} {
				if !strings.Contains(got, want) {
					t.Errorf("lag output missing %q:\n%s", want, got)
				}
			}
			// The drain tier merges both shards: n=4.
			if !strings.Contains(got, "drain") {
				t.Fatalf("no drain row:\n%s", got)
			}
			for _, line := range strings.Split(got, "\n") {
				if strings.HasPrefix(strings.TrimSpace(line), "drain") {
					if !strings.Contains(line, "4") {
						t.Errorf("drain row does not merge both shards: %q", line)
					}
				}
			}
		})
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

// TestBenchSubcommand aggregates two synthetic BENCH files and checks
// provenance order and the delta column.
func TestBenchSubcommand(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("BENCH_netcast.json", `{"scaling_summary": {"on_air_ns": 1000}, "note": "text ignored"}`)
	write("BENCH_latency.json", `{"scaling_summary": {"on_air_ns": 900}, "overhead_pct": 1.5}`)
	var out strings.Builder
	if err := run([]string{"bench", dir}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"benchmark trajectory", "scaling_summary.on_air_ns", "overhead_pct", "BENCH_netcast", "BENCH_latency", "-10.0%"} {
		if !strings.Contains(got, want) {
			t.Errorf("bench output missing %q:\n%s", want, got)
		}
	}
	// PR 7 (netcast) must precede PR 9 (latency) so the delta is 9-vs-7.
	if strings.Index(got, "BENCH_netcast") > strings.Index(got, "BENCH_latency") {
		t.Errorf("provenance order wrong:\n%s", got)
	}
	if strings.Contains(got, "note") {
		t.Errorf("non-numeric leaf rendered:\n%s", got)
	}
}

// TestBenchSubcommandRepo runs bench over the real repo BENCH files —
// the CI smoke step.
func TestBenchSubcommandRepo(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"bench", "../.."}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "BENCH_fleet") {
		t.Errorf("repo bench report missing BENCH_fleet:\n%s", out.String())
	}
}

func TestBenchSubcommandErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"bench", t.TempDir()}, &out); err == nil {
		t.Error("directory without BENCH files accepted")
	}
	if err := run([]string{"bench", "a", "b"}, &out); err == nil {
		t.Error("two directories accepted")
	}
}
