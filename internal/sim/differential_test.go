package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"bpush/internal/broadcast"
	"bpush/internal/core"
	"bpush/internal/cyclesource"
	"bpush/internal/fault"
	"bpush/internal/obs"
	"bpush/internal/wire"
)

// differentialSeeds is the seed sweep of the shared-index differential
// suite: enough seeds that every scheme path (aborts, marked continuations,
// overflow walks, graph pruning) is exercised on produced and on decoded
// becasts.
var differentialSeeds = []int64{1, 2, 3, 5, 8, 13, 21, 34}

// diffRun executes cfg once and returns its metrics, the canonical JSONL
// traces (client and producer streams) and the frameDigest of every
// cycle the producer put on the air.
func diffRun(t *testing.T, cfg Config) (m *Metrics, client, source []byte, frames string) {
	t.Helper()
	return diffRunFeed(t, cfg, sourceFeed)
}

// diffRunFeed is diffRun with the client reading the stream through
// newFeed.
func diffRunFeed(t *testing.T, cfg Config, newFeed func(*cyclesource.Source) feed) (m *Metrics, client, source []byte, frames string) {
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
	m, err = runClient(cfg, src, newFeed)
	if err != nil {
		t.Fatal(err)
	}
	if cw.Err() != nil || sw.Err() != nil {
		t.Fatalf("trace write errors: %v / %v", cw.Err(), sw.Err())
	}
	return m, cbuf.Bytes(), sbuf.Bytes(), frameDigest(t, src)
}

// frameDigest is the SHA-256, in hex, over the wire frame of every cycle
// src has produced, in cycle order and each prefixed with its length.
// Two runs with equal digests put the same bytes on the air: the same
// TxIDs, serialization-graph edges in the same order, the same values.
// It must run before src is closed, since spilled cycles are read back
// from the durable log.
func frameDigest(t *testing.T, src *cyclesource.Source) string {
	t.Helper()
	h := sha256.New()
	var n [8]byte
	for i := 0; i < int(src.Produced()); i++ {
		_, frame, err := src.GetFrame(i)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(n[:], uint64(len(frame)))
		h.Write(n[:])
		h.Write(frame)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// decodedFeed hands its client every cycle the way a live tuner does:
// decoded from the cycle's wire frame, so every becast it delivers is a
// fresh one that the client's scheme primes on first use.
type decodedFeed struct{ *cyclesource.Feed }

func newDecodedFeed(src *cyclesource.Source) feed { return decodedFeed{src.NewFeed()} }

func (f decodedFeed) Next() (*broadcast.Bcast, error) {
	if _, err := f.Feed.Next(); err != nil {
		return nil, err
	}
	frame, err := f.Frame()
	if err != nil {
		return nil, err
	}
	return wire.DecodeBytes(frame)
}

// assertIndexInvisible runs cfg with clients reading the source's own
// becasts, which the producer primed and every client shares, and again
// with clients reading decoded frames (each a fresh becast, read in place
// and primed by its consumer), and requires the two executions to be
// observationally identical: equal Metrics, byte-identical JSONL traces
// and byte-identical frames. A produced becast and its decoded frame are
// the same cycle.
func assertIndexInvisible(t *testing.T, cfg Config) {
	t.Helper()
	sm, sc, ss, sf := diffRun(t, cfg)
	lm, lc, ls, lf := diffRunFeed(t, cfg, newDecodedFeed)

	if !reflect.DeepEqual(sm, lm) {
		t.Errorf("metrics differ between produced and decoded becasts:\nproduced: %+v\ndecoded:  %+v", sm, lm)
	}
	if len(sc) == 0 {
		t.Fatalf("empty client trace")
	}
	if !bytes.Equal(sc, lc) {
		t.Errorf("client traces differ between produced and decoded becasts (%d vs %d bytes)", len(sc), len(lc))
	}
	if !bytes.Equal(ss, ls) {
		t.Errorf("producer traces differ between produced and decoded becasts (%d vs %d bytes)", len(ss), len(ls))
	}
	if sf != lf {
		t.Errorf("frames differ between produced and decoded becasts: digest %s vs %s", sf, lf)
	}
}

// TestSharedIndexDifferential is the full differential sweep: every scheme,
// at item granularity and (where the method defines it) bucket granularity,
// across eight seeds. Runs over the produced becasts and over decoded
// frames must be byte-identical.
func TestSharedIndexDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed differential sweep")
	}
	variants := []struct {
		name string
		opts core.Options
	}{
		{"inv-only", core.Options{Kind: core.KindInvOnly}},
		{"inv-only-bucket", core.Options{Kind: core.KindInvOnly, CacheSize: 40, BucketGranularity: 8}},
		{"vcache", core.Options{Kind: core.KindVCache, CacheSize: 40}},
		{"vcache-bucket", core.Options{Kind: core.KindVCache, CacheSize: 40, BucketGranularity: 8}},
		{"multiversion", core.Options{Kind: core.KindMVBroadcast}},
		{"mv-cache", core.Options{Kind: core.KindMVCache, CacheSize: 40, OldFraction: 0.6}},
		{"mv-cache-bucket", core.Options{Kind: core.KindMVCache, CacheSize: 40, BucketGranularity: 8}},
		{"sgt", core.Options{Kind: core.KindSGT, CacheSize: 40}},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			for _, seed := range differentialSeeds {
				cfg := testConfig(v.opts.Kind, v.opts.CacheSize)
				cfg.Scheme = v.opts
				cfg.Seed = seed
				cfg.Queries = 80
				cfg.Warmup = 10
				cfg.Check = false
				if v.opts.Kind == core.KindMVBroadcast {
					cfg.ServerVersions = 6
				}
				assertIndexInvisible(t, cfg)
				if t.Failed() {
					t.Fatalf("divergence at seed %d", seed)
				}
			}
		})
	}
}

// TestSharedIndexDifferentialUnderFaults covers the mix the fault layer
// forces: a corrupted frame that still decodes arrives as a fresh becast,
// so a chaos run mixes shared produced cycles with re-decoded ones. The
// mix must still match a run where every client reads decoded frames.
func TestSharedIndexDifferentialUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("fault differential sweep")
	}
	plans := []struct {
		name string
		plan fault.Plan
	}{
		{"corrupt-heavy", fault.Plan{Corrupt: 0.3}},
		{"chaos", fault.Plan{Drop: 0.05, Corrupt: 0.1, Truncate: 0.05, Duplicate: 0.05, Reorder: 0.03}},
	}
	for _, p := range plans {
		p := p
		t.Run(p.name, func(t *testing.T) {
			for _, seed := range differentialSeeds[:4] {
				cfg := testConfig(core.KindInvOnly, 40)
				cfg.Seed = seed
				cfg.Queries = 60
				cfg.Warmup = 10
				cfg.Check = false
				cfg.Fault = p.plan
				assertIndexInvisible(t, cfg)
				if t.Failed() {
					t.Fatalf("divergence at seed %d", seed)
				}
			}
		})
	}
}

// TestSharedIndexDifferentialFleet extends the property to fleets: many
// clients sharing one producer's becasts must produce exactly the metrics
// and traces of a fleet where every client reads its own decoded frames.
func TestSharedIndexDifferentialFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet differential")
	}
	const clients = 5
	run := func(newFeed func(*cyclesource.Source) feed) ([]Metrics, []byte, string) {
		cfg := testConfig(core.KindSGT, 40)
		cfg.Queries = 40
		cfg.Warmup = 5
		cfg.Check = false
		cfg.Parallel = 2
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
		fm, err := runFleet(cfg, src, clients, newFeed)
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
	sharedM, sharedT, sharedF := run(sourceFeed)
	localM, localT, localF := run(newDecodedFeed)
	if !reflect.DeepEqual(sharedM, localM) {
		t.Errorf("fleet metrics differ between produced and decoded becasts")
	}
	if len(sharedT) == 0 {
		t.Fatalf("empty fleet trace")
	}
	if !bytes.Equal(sharedT, localT) {
		t.Errorf("fleet traces differ between produced and decoded becasts")
	}
	if sharedF != localF {
		t.Errorf("fleet frames differ between produced and decoded becasts")
	}
}
