package sim

import (
	"math/rand"
	"testing"

	"bpush/internal/client"
	"bpush/internal/core"
	"bpush/internal/cyclesource"
	"bpush/internal/obs"
	"bpush/internal/workload"
)

// benchObservedClient drives one client over a pre-built shared source with
// the given recorder attached to both the scheme and the client runtime.
// The pair of benchmarks below measures the cost of *attaching* a recorder
// that discards everything (obs.Nop) versus leaving the path unobserved
// (nil recorder, every record site gated off). The delta is event
// construction plus one interface dispatch per event — the price any real
// sink pays before doing its own work. The acceptance bar is <2%, the
// same as the fault layer's zero-plan overhead (BenchmarkCleanRun*).
func benchObservedClient(b *testing.B, src *cyclesource.Source, cfg Config, rec obs.Recorder) {
	b.Helper()
	sopts := cfg.Scheme
	sopts.Recorder = rec
	scheme, err := core.New(sopts)
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
	cl, err := client.New(scheme, src.NewFeed(), client.Config{ThinkTime: cfg.ThinkTime, Recorder: rec})
	if err != nil {
		b.Fatal(err)
	}
	for q := 0; q < cfg.Queries; q++ {
		if _, err := cl.RunQuery(qgen.Query()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNopRecorderBaseline is the unobserved path: recorder nil, so
// every record site short-circuits before building an event.
func BenchmarkNopRecorderBaseline(b *testing.B) {
	src, cfg := benchCleanSetup(b)
	benchObservedClient(b, src, cfg, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchObservedClient(b, src, cfg, nil)
	}
}

// BenchmarkNopRecorderAttached runs the identical workload with obs.Nop
// attached: events are constructed and dispatched through the Recorder
// interface, then discarded.
func BenchmarkNopRecorderAttached(b *testing.B) {
	src, cfg := benchCleanSetup(b)
	benchObservedClient(b, src, cfg, obs.Nop{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchObservedClient(b, src, cfg, obs.Nop{})
	}
}
