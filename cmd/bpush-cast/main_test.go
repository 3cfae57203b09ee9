package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestBuildConfigDefaults(t *testing.T) {
	cfg, err := buildConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	st := cfg.Station
	if st.DBSize != 1000 || st.Versions != 1 || st.Interval != 500*time.Millisecond {
		t.Errorf("unexpected defaults: %+v", st)
	}
	if st.Workload.DBSize != st.DBSize {
		t.Error("workload DBSize not aligned with station DBSize")
	}
	if st.Workload.ReadsPerUpdate != 4 {
		t.Errorf("ReadsPerUpdate = %d, want the paper's 4", st.Workload.ReadsPerUpdate)
	}
	if cfg.Load.Tuners != 0 {
		t.Errorf("load mode on by default: %+v", cfg.Load)
	}
	if cfg.Load.Cycles != 20 || cfg.Load.Transport != "mem" || cfg.Load.Clients != 3 {
		t.Errorf("unexpected load defaults: %+v", cfg.Load)
	}
	if st.Sample || st.Pprof {
		t.Errorf("sampling/pprof on by default: %+v", st)
	}
}

func TestBuildConfigOverrides(t *testing.T) {
	cfg, err := buildConfig([]string{
		"-db", "200", "-versions", "3", "-interval", "50ms", "-workers", "4", "-updates", "20",
		"-shards", "4", "-queue", "16", "-write-timeout", "2s",
	})
	if err != nil {
		t.Fatal(err)
	}
	st := cfg.Station
	if st.DBSize != 200 || st.Versions != 3 || st.Interval != 50*time.Millisecond || st.Workers != 4 {
		t.Errorf("overrides not applied: %+v", st)
	}
	if st.Workload.UpdatesPerCycle != 20 {
		t.Errorf("updates = %d, want 20", st.Workload.UpdatesPerCycle)
	}
	if st.Cast.Shards != 4 || st.Cast.QueueLen != 16 || st.Cast.WriteTimeout != 2*time.Second {
		t.Errorf("cast config not applied: %+v", st.Cast)
	}
}

func TestBuildConfigRejectsBadFlags(t *testing.T) {
	if _, err := buildConfig([]string{"-no-such-flag"}); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestLoadOptionsValidate(t *testing.T) {
	if err := (loadOptions{Cycles: 3, Transport: "mem"}).validate(); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
	if err := (loadOptions{Cycles: 0, Transport: "mem"}).validate(); err == nil {
		t.Error("zero cycles accepted")
	}
	if err := (loadOptions{Cycles: 3, Transport: "udp"}).validate(); err == nil {
		t.Error("bad transport accepted")
	}
	if err := (loadOptions{Cycles: 3, Transport: "mem", Clients: -1}).validate(); err == nil {
		t.Error("negative client count accepted")
	}
}

// runLoadHarness runs a small load harness with the given extra flags
// and returns the parsed report.
func runLoadHarness(t *testing.T, extra ...string) loadReport {
	t.Helper()
	out := filepath.Join(t.TempDir(), "load.json")
	args := append([]string{
		"-addr", "127.0.0.1:0", "-db", "100", "-update-range", "50",
		"-load", "40", "-load-cycles", "3", "-queue", "8", "-load-out", out,
		// The frame/eviction accounting below assumes the audience is
		// exactly -load tuners; measured clients get their own test.
		"-load-clients", "0",
	}, extra...)
	cfg, err := buildConfig(args)
	if err != nil {
		t.Fatal(err)
	}
	if err := runLoad(cfg); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep loadReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, raw)
	}
	return rep
}

// TestLoadHarnessSharded runs the full harness end to end in-process:
// 40 tuners, 3 measured cycles, then the eviction sweep — and checks
// the report's accounting against the run it describes.
func TestLoadHarnessSharded(t *testing.T) {
	rep := runLoadHarness(t)
	if rep.Mode != "sharded" || rep.Transport != "mem" || rep.Tuners != 40 || rep.Cycles != 3 {
		t.Fatalf("report header wrong: %+v", rep)
	}
	if rep.AcceptNs <= 0 || rep.AcceptPerSec <= 0 {
		t.Errorf("accept phase unmeasured: %+v", rep)
	}
	if rep.OnAirNsPerCycle <= 0 || rep.SustainedNsPerCycle < rep.OnAirNsPerCycle {
		t.Errorf("broadcast phase inconsistent: on-air %d, sustained %d", rep.OnAirNsPerCycle, rep.SustainedNsPerCycle)
	}
	// 3 measured cycles to 40 subscribers, all delivered.
	if rep.DeliveredFrames != 3*40 {
		t.Errorf("delivered %d frames, want %d", rep.DeliveredFrames, 3*40)
	}
	if rep.FrameBytes <= 0 {
		t.Errorf("frame bytes unmeasured: %+v", rep)
	}
	// The eviction sweep removes the whole stalled audience.
	if rep.Evictions != 40 {
		t.Errorf("evicted %d subscribers, want 40", rep.Evictions)
	}
	if rep.EvictionSweepNs <= 0 || rep.EvictionsPerSec <= 0 {
		t.Errorf("eviction sweep unmeasured: %+v", rep)
	}
	// Every tuner decoded the warm-up plus the measured cycles before
	// the stall (a parked tuner may also swallow a couple of
	// eviction-phase frames).
	if rep.TunersDecodedMin < 1+3 {
		t.Errorf("slowest tuner decoded %d becasts, want >= 4", rep.TunersDecodedMin)
	}
}

// TestLoadHarnessTCP runs a small audience over real loopback sockets.
func TestLoadHarnessTCP(t *testing.T) {
	rep := runLoadHarness(t, "-load-transport", "tcp", "-load", "10")
	if rep.Transport != "tcp" || rep.Tuners != 10 {
		t.Fatalf("report header wrong: %+v", rep)
	}
	if rep.DeliveredFrames != 3*10 {
		t.Errorf("delivered %d frames, want %d", rep.DeliveredFrames, 3*10)
	}
	if rep.Evictions != 10 {
		t.Errorf("evicted %d subscribers, want 10", rep.Evictions)
	}
}

// TestLoadHarnessAttribution: with measured clients, the report embeds
// the full cross-tier attribution — producer span tiers, receive samples
// from the probe tuners, per-query read latency, and per-scheme
// staleness — in its registry snapshot. This is the data bpush-inspect
// lag renders.
func TestLoadHarnessAttribution(t *testing.T) {
	rep := runLoadHarness(t, "-load-clients", "3", "-load-cycles", "6")
	if rep.LoadClients != 3 {
		t.Fatalf("load_clients = %d, want 3", rep.LoadClients)
	}
	for _, name := range []string{"span.commit_ns", "span.on_air_ns", "span.receive_ns", "span.read_ns", "net.queue_depth"} {
		if h, ok := rep.Metrics.Histograms[name]; !ok || h.Count == 0 {
			t.Errorf("metrics missing %s samples (present=%v)", name, ok)
		}
	}
	if rep.ClientQueries == 0 {
		t.Errorf("measured clients completed no queries")
	}
	staleness := false
	for name := range rep.Metrics.Histograms {
		if strings.HasPrefix(name, "staleness.") {
			staleness = true
		}
	}
	if !staleness {
		t.Errorf("no per-scheme staleness histograms in the snapshot")
	}
}

// TestWriteReportStable pins the report field names — BENCH_netcast.json
// and any dashboards parse them.
func TestWriteReportStable(t *testing.T) {
	var buf bytes.Buffer
	if err := writeReport(&buf, loadReport{Mode: "sharded", Tuners: 1}); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"mode", "tuners", "on_air_ns_per_cycle", "sustained_ns_per_cycle", "accepts_per_sec"} {
		if !bytes.Contains(buf.Bytes(), []byte(`"`+key+`"`)) {
			t.Errorf("report missing key %q:\n%s", key, buf.String())
		}
	}
}

// TestBuildConfigDurableFlags pins the -log-dir family's wiring into the
// station config.
func TestBuildConfigDurableFlags(t *testing.T) {
	cfg, err := buildConfig([]string{"-log-dir", "/tmp/bpush-log", "-mem-cycles", "64", "-snapshot-every", "32"})
	if err != nil {
		t.Fatal(err)
	}
	st := cfg.Station
	if st.LogDir != "/tmp/bpush-log" || st.MemCycles != 64 || st.SnapshotEvery != 32 {
		t.Errorf("durable-log flags not applied: LogDir=%q MemCycles=%d SnapshotEvery=%d", st.LogDir, st.MemCycles, st.SnapshotEvery)
	}
	cfg, err = buildConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Station.LogDir != "" || cfg.Station.MemCycles != 0 || cfg.Station.SnapshotEvery != 0 {
		t.Errorf("durable log on by default: %+v", cfg.Station)
	}
}
