package main

import (
	"testing"
	"time"
)

func TestBuildConfigDefaults(t *testing.T) {
	st, err := buildConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.DBSize != 1000 || st.Versions != 1 || st.Interval != 500*time.Millisecond {
		t.Errorf("unexpected defaults: %+v", st)
	}
	if st.Workload.DBSize != st.DBSize {
		t.Error("workload DBSize not aligned with station DBSize")
	}
	if st.Workload.ReadsPerUpdate != 4 {
		t.Errorf("ReadsPerUpdate = %d, want the paper's 4", st.Workload.ReadsPerUpdate)
	}
	if st.Sample || st.Pprof {
		t.Errorf("sampling/pprof on by default: %+v", st)
	}
}

func TestBuildConfigOverrides(t *testing.T) {
	st, err := buildConfig([]string{
		"-db", "200", "-versions", "3", "-interval", "50ms", "-workers", "4", "-updates", "20",
		"-shards", "4", "-queue", "16", "-write-timeout", "2s",
	})
	if err != nil {
		t.Fatal(err)
	}
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

// TestBuildConfigDurableFlags pins the -log-dir family's wiring into the
// station config.
func TestBuildConfigDurableFlags(t *testing.T) {
	st, err := buildConfig([]string{"-log-dir", "/tmp/bpush-log", "-mem-cycles", "64", "-snapshot-every", "32"})
	if err != nil {
		t.Fatal(err)
	}
	if st.LogDir != "/tmp/bpush-log" || st.MemCycles != 64 || st.SnapshotEvery != 32 {
		t.Errorf("durable-log flags not applied: LogDir=%q MemCycles=%d SnapshotEvery=%d", st.LogDir, st.MemCycles, st.SnapshotEvery)
	}
	st, err = buildConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.LogDir != "" || st.MemCycles != 0 || st.SnapshotEvery != 0 {
		t.Errorf("durable log on by default: %+v", st)
	}
}
