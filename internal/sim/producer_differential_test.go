package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"bpush/internal/core"
	"bpush/internal/obs"
)

// producerWorkerCounts is the pipeline sweep of the producer
// differential suite; 1 is the baseline every other count must match.
var producerWorkerCounts = []int{1, 2, 4, 8}

// assertProducerWorkersInvisible runs cfg with the commit pipeline
// single-threaded and again at the given worker count and requires the
// two executions to be observationally identical: equal Metrics and
// byte-identical JSONL traces on both the client and the producer
// stream, and byte-identical frames on the air. This is the acceptance
// property of the multi-core commit pipeline: a throughput lever, never
// a behavior change.
func assertProducerWorkersInvisible(t *testing.T, cfg Config, workers int) {
	t.Helper()
	serial := cfg
	serial.ProducerWorkers = 1
	parallel := cfg
	parallel.ProducerWorkers = workers

	sm, sc, ss, sf := diffRun(t, serial)
	pm, pc, ps, pf := diffRun(t, parallel)

	if !reflect.DeepEqual(sm, pm) {
		t.Errorf("metrics differ between 1 and %d producer workers:\n1: %+v\n%d: %+v", workers, sm, workers, pm)
	}
	if len(sc) == 0 {
		t.Fatalf("empty client trace")
	}
	if !bytes.Equal(sc, pc) {
		t.Errorf("client traces differ between 1 and %d producer workers (%d vs %d bytes)", workers, len(sc), len(pc))
	}
	if len(ss) == 0 {
		t.Fatalf("empty producer trace")
	}
	if !bytes.Equal(ss, ps) {
		t.Errorf("producer traces differ between 1 and %d producer workers (%d vs %d bytes)", workers, len(ss), len(ps))
	}
	if sf != pf {
		t.Errorf("frames differ between 1 and %d producer workers: digest %s vs %s", workers, sf, pf)
	}
}

// TestProducerPipelineDifferential is the end-to-end differential sweep
// of the commit pipeline: across eight seeds, every tested worker count,
// and both invalidation-report granularities (per-item and bucketed),
// runs must be byte-identical to the single-threaded pipeline.
func TestProducerPipelineDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed producer differential sweep")
	}
	variants := []struct {
		name string
		opts core.Options
	}{
		{"sgt-item", core.Options{Kind: core.KindSGT, CacheSize: 40}},
		{"inv-only-bucket", core.Options{Kind: core.KindInvOnly, CacheSize: 40, BucketGranularity: 8}},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			for _, seed := range differentialSeeds {
				for _, workers := range producerWorkerCounts[1:] {
					cfg := testConfig(v.opts.Kind, v.opts.CacheSize)
					cfg.Scheme = v.opts
					cfg.Seed = seed
					cfg.Queries = 60
					cfg.Warmup = 10
					cfg.Check = false
					assertProducerWorkersInvisible(t, cfg, workers)
					if t.Failed() {
						t.Fatalf("divergence at seed %d, workers %d", seed, workers)
					}
				}
			}
		})
	}
}

// TestProducerPipelineDifferentialFleet extends the property to fleets:
// many clients sharing one pipelined producer must see exactly the
// metrics, traces and frames of a fleet fed by the single-threaded
// pipeline.
func TestProducerPipelineDifferentialFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet producer differential")
	}
	const clients = 5
	run := func(producerWorkers int) ([]Metrics, []byte, string) {
		cfg := testConfig(core.KindSGT, 40)
		cfg.Queries = 40
		cfg.Warmup = 5
		cfg.Check = false
		cfg.Parallel = 2
		cfg.ProducerWorkers = producerWorkers
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
	serialM, serialT, serialF := run(1)
	for _, workers := range []int{4, 8} {
		pipeM, pipeT, pipeF := run(workers)
		if !reflect.DeepEqual(serialM, pipeM) {
			t.Errorf("fleet metrics differ between 1 and %d producer workers", workers)
		}
		if len(serialT) == 0 {
			t.Fatalf("empty fleet trace")
		}
		if !bytes.Equal(serialT, pipeT) {
			t.Errorf("fleet traces differ between 1 and %d producer workers", workers)
		}
		if serialF != pipeF {
			t.Errorf("fleet frames differ between 1 and %d producer workers", workers)
		}
	}
}
