package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"bpush/internal/core"
	"bpush/internal/obs"
)

// durPhase1 produces `stop` cycles into cfg.LogDir with no client
// attached — the run that gets killed — and returns its producer trace.
func durPhase1(t *testing.T, cfg Config, stop int) []byte {
	t.Helper()
	var sbuf bytes.Buffer
	sw := obs.NewJSONL(&sbuf)
	cfg.SourceRecorder = sw
	src, err := cfg.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	feed := src.NewFeed()
	for i := 0; i < stop; i++ {
		if _, err := feed.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sw.Err(); err != nil {
		t.Fatal(err)
	}
	return sbuf.Bytes()
}

// durPhase2 reopens cfg.LogDir and runs the full client workload over
// the resumed source, returning metrics, client and producer traces, and
// the frameDigest of every cycle, the replayed prefix included.
func durPhase2(t *testing.T, cfg Config) (*Metrics, []byte, []byte, string) {
	t.Helper()
	var cbuf, sbuf bytes.Buffer
	cw, sw := obs.NewJSONL(&cbuf), obs.NewJSONL(&sbuf)
	cfg.Recorder = cw
	cfg.SourceRecorder = sw
	src, err := cfg.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = src.Close() }()
	m, err := runClient(cfg, src, sourceFeed)
	if err != nil {
		t.Fatal(err)
	}
	if cw.Err() != nil || sw.Err() != nil {
		t.Fatalf("trace write errors: %v / %v", cw.Err(), sw.Err())
	}
	return m, cbuf.Bytes(), sbuf.Bytes(), frameDigest(t, src)
}

// assertRestartEquivalent is satellite 1's core check: a run whose
// producer was killed after `stop` cycles and restarted from the durable
// log must be indistinguishable from one that never stopped — equal
// Metrics, byte-identical client trace and frames, and a producer trace
// that concatenates across the restart to the uninterrupted stream.
func assertRestartEquivalent(t *testing.T, cfg Config, stop int) {
	t.Helper()
	um, uc, us, uf := diffRun(t, cfg) // uninterrupted, memory only

	dcfg := cfg
	dcfg.LogDir = t.TempDir()
	dcfg.MemCycles = 8 // bounded window: phase 2 serves the prefix from disk
	dcfg.SnapshotEvery = 10
	trace1 := durPhase1(t, dcfg, stop)
	dm, dc, trace2, df := durPhase2(t, dcfg)

	if int(dm.Cycles) <= stop {
		t.Fatalf("client consumed %d cycles; raise Queries or lower stop=%d", dm.Cycles, stop)
	}
	if !reflect.DeepEqual(um, dm) {
		t.Errorf("metrics differ after restart:\nuninterrupted: %+v\nrestarted:     %+v", um, dm)
	}
	if len(dc) == 0 {
		t.Fatal("empty client trace")
	}
	if !bytes.Equal(uc, dc) {
		t.Errorf("client traces differ after restart (%d vs %d bytes)", len(uc), len(dc))
	}
	if uf != df {
		t.Errorf("frames differ after restart: digest %s vs %s", uf, df)
	}
	joined := append(append([]byte(nil), trace1...), trace2...)
	if !bytes.Equal(us, joined) {
		t.Errorf("producer traces do not concatenate to the uninterrupted stream (%d vs %d+%d bytes)",
			len(us), len(trace1), len(trace2))
	}
}

// TestDurabilityRestartEquivalence sweeps the restart differential over
// the eight differential seeds at item and bucket granularity.
func TestDurabilityRestartEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed restart differential")
	}
	variants := []struct {
		name string
		opts core.Options
	}{
		{"item", core.Options{Kind: core.KindVCache, CacheSize: 40}},
		{"bucket", core.Options{Kind: core.KindVCache, CacheSize: 40, BucketGranularity: 8}},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			for _, seed := range differentialSeeds {
				cfg := testConfig(v.opts.Kind, v.opts.CacheSize)
				cfg.Scheme = v.opts
				cfg.Seed = seed
				cfg.Queries = 60
				cfg.Warmup = 10
				cfg.Check = false
				assertRestartEquivalent(t, cfg, 25)
				if t.Failed() {
					t.Fatalf("divergence at seed %d", seed)
				}
			}
		})
	}
}

// TestDurabilityRestartEquivalenceFleet extends restart equivalence to a
// fleet: every client of the restarted producer must report exactly the
// metrics and traces of an uninterrupted fleet run, over the same frames.
func TestDurabilityRestartEquivalenceFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet restart differential")
	}
	const clients, stop = 5, 25
	base := testConfig(core.KindSGT, 40)
	base.Queries = 40
	base.Warmup = 5
	base.Check = false
	base.Parallel = 2

	run := func(cfg Config, resumed bool) ([]Metrics, []byte, string) {
		bufs := make([]bytes.Buffer, clients)
		recs := make([]*obs.JSONL, clients)
		for i := range recs {
			recs[i] = obs.NewJSONL(&bufs[i])
		}
		cfg.RecorderFor = func(i int) obs.Recorder { return recs[i] }
		src, err := cfg.NewSource()
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = src.Close() }()
		if got := src.Produced(); resumed && got != stop {
			t.Fatalf("resumed fleet source Produced() = %d, want %d", got, stop)
		}
		fm, err := runFleet(cfg, src, clients, sourceFeed)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		for i := range bufs {
			if recs[i].Err() != nil {
				t.Fatalf("client %d trace error: %v", i, recs[i].Err())
			}
			fmt.Fprintf(&out, "client %d\n", i)
			out.Write(bufs[i].Bytes())
		}
		perClient := make([]Metrics, len(fm.PerClient))
		for i, m := range fm.PerClient {
			perClient[i] = *m
		}
		return perClient, out.Bytes(), frameDigest(t, src)
	}

	uM, uT, uF := run(base, false)

	dcfg := base
	dcfg.LogDir = t.TempDir()
	dcfg.MemCycles = 8
	dcfg.SnapshotEvery = 10
	durPhase1(t, dcfg, stop)
	dM, dT, dF := run(dcfg, true)

	if !reflect.DeepEqual(uM, dM) {
		t.Error("fleet metrics differ after restart")
	}
	if len(uT) == 0 {
		t.Fatal("empty fleet trace")
	}
	if !bytes.Equal(uT, dT) {
		t.Error("fleet traces differ after restart")
	}
	if uF != dF {
		t.Error("fleet frames differ after restart")
	}
}

// TestDurabilityOraclePruningInvisible is satellite 3's pinning run: with
// the oracle on, spilling cycles to disk (which prunes archived states
// and logs to the check window) must leave every verdict and counter of
// a client that walks the stream as it is produced unchanged.
func TestDurabilityOraclePruningInvisible(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle pruning differential")
	}
	for _, seed := range differentialSeeds[:4] {
		cfg := testConfig(core.KindSGT, 40)
		cfg.Seed = seed
		cfg.Queries = 60
		cfg.Warmup = 10
		cfg.OracleWindow = 8 // tight, so pruning actually happens

		um, uc, us, uf := diffRun(t, cfg)

		pcfg := cfg
		pcfg.LogDir = t.TempDir()
		pcfg.MemCycles = 8
		pm, pc, ps, pf := diffRun(t, pcfg)

		if um.OracleChecked == 0 {
			t.Fatal("oracle never ran; the pinning run is vacuous")
		}
		if !reflect.DeepEqual(um, pm) {
			t.Fatalf("seed %d: metrics (incl. oracle counters) differ under pruning:\nfull:   %+v\npruned: %+v", seed, um, pm)
		}
		if !bytes.Equal(uc, pc) || !bytes.Equal(us, ps) {
			t.Fatalf("seed %d: traces differ under pruning", seed)
		}
		if uf != pf {
			t.Fatalf("seed %d: frames differ under pruning", seed)
		}
	}
}
