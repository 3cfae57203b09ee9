package sim

import (
	"math/rand"
	"testing"

	"bpush/internal/client"
	"bpush/internal/core"
	"bpush/internal/cyclesource"
	"bpush/internal/fault"
	"bpush/internal/workload"
)

// benchFleetConfig is the default operating point at a per-client query
// budget small enough for testing.B, oracle off (benchmarks measure the
// pipeline, not the checker).
func benchFleetConfig() Config {
	cfg := DefaultConfig()
	cfg.Queries = 200
	cfg.Warmup = 20
	cfg.Scheme = core.Options{Kind: core.KindSGT, CacheSize: 100}
	return cfg
}

// benchCleanClient drives one client over a pre-built shared source, with
// or without a zero-plan fault injector interposed. The pair of benchmarks
// below measures the cost of merely *attaching* the fault layer on a clean
// channel — the acceptance bar is <2%, because every simulation routes
// through the layer's interface whether or not faults are configured.
func benchCleanClient(b *testing.B, src *cyclesource.Source, cfg Config, attach bool) {
	b.Helper()
	ccfg := client.Config{ThinkTime: cfg.ThinkTime}
	scheme, err := core.New(cfg.Scheme)
	if err != nil {
		b.Fatal(err)
	}
	qgen, err := workload.NewQueryGen(workload.ClientConfig{
		ReadRange:   cfg.ReadRange,
		Theta:       cfg.Theta,
		OpsPerQuery: cfg.OpsPerQuery,
	}, rand.New(rand.NewSource(2)))
	if err != nil {
		b.Fatal(err)
	}
	feed := src.NewFeed()
	var cl *client.Client
	if attach {
		inj, err := fault.New(feed, fault.Plan{}, 3)
		if err != nil {
			b.Fatal(err)
		}
		cl, err = client.NewFromEvents(scheme, inj, ccfg)
		if err != nil {
			b.Fatal(err)
		}
	} else {
		cl, err = client.New(scheme, feed, ccfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for q := 0; q < cfg.Queries; q++ {
		if _, err := cl.RunQuery(qgen.Query()); err != nil {
			b.Fatal(err)
		}
	}
}

func benchCleanSetup(b *testing.B) (*cyclesource.Source, Config) {
	b.Helper()
	cfg := benchFleetConfig()
	cfg.Queries = 300
	src, err := cfg.NewSource()
	if err != nil {
		b.Fatal(err)
	}
	return src, cfg
}

// BenchmarkCleanRunSeedPath is the baseline: the pre-fault-layer client
// pipeline, a plain feed adapted internally. One untimed pass warms the
// memoized cycle log, so the timed region measures only the consumer.
func BenchmarkCleanRunSeedPath(b *testing.B) {
	src, cfg := benchCleanSetup(b)
	benchCleanClient(b, src, cfg, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchCleanClient(b, src, cfg, false)
	}
}

// BenchmarkCleanRunFaultLayerAttached forces a zero-plan Injector between
// the feed and the client: same stream, same queries, plus one interface
// hop per cycle. The plan is zero, so the injector draws no randomness and
// allocates nothing per frame.
func BenchmarkCleanRunFaultLayerAttached(b *testing.B) {
	src, cfg := benchCleanSetup(b)
	benchCleanClient(b, src, cfg, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchCleanClient(b, src, cfg, true)
	}
}
