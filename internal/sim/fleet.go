package sim

import (
	"fmt"

	"bpush/internal/cyclesource"
	"bpush/internal/pool"
	"bpush/internal/stats"
)

// FleetMetrics aggregates a multi-client run: the paper's headline claim
// is that the methods are *scalable* — processing happens entirely at the
// clients, so per-client performance is independent of the population
// size. RunFleet makes that structural, not just measured: one producer
// generates every broadcast cycle exactly once and all clients replay the
// shared stream, so fleet cost is O(server-work + clients x client-work).
type FleetMetrics struct {
	Clients   int
	PerClient []*Metrics

	// Across-client aggregates of the per-client metrics.
	MeanAbortRate float64
	StdAbortRate  float64
	MeanLatency   float64
	StdLatency    float64

	// ServerCycles is the number of broadcast cycles the producer
	// assembled — each exactly once, however many clients consumed it.
	// The server-side cost of a cycle is independent of the fleet size,
	// which is the scalability property.
	ServerCycles uint64
}

// RunFleet simulates a population of independent clients over one shared
// broadcast stream. Client i draws its queries (and disconnections) from
// seed cfg.Seed + 1000*(i+1); the server-side cycle stream is produced
// once and replayed to everyone, exactly as a shared broadcast channel
// behaves. Clients run on a bounded worker pool of cfg.Parallel
// goroutines (0 = one per CPU, 1 = serial); per-client results and all
// aggregates are identical regardless of the worker count.
func RunFleet(cfg Config, clients int) (*FleetMetrics, error) {
	src, err := cfg.NewSource()
	if err != nil {
		return nil, err
	}
	defer func() { _ = src.Close() }()
	return runFleet(cfg, src, clients, sourceFeed)
}

// runFleet drives the fleet over an injected source — the seam the
// durability differential uses to run a fleet against a producer resumed
// from disk — each client reading it through newFeed(src). The caller
// owns (and closes) the source.
func runFleet(cfg Config, src *cyclesource.Source, clients int, newFeed func(*cyclesource.Source) feed) (*FleetMetrics, error) {
	if clients <= 0 {
		return nil, fmt.Errorf("sim: fleet size must be positive, got %d", clients)
	}
	fm := &FleetMetrics{Clients: clients, PerClient: make([]*Metrics, clients)}
	err := pool.For(cfg.Parallel, clients, func(i int) error {
		c := cfg
		c.ClientSeed = cfg.Seed + 1000*int64(i+1)
		if cfg.RecorderFor != nil {
			// One recorder per client: each stream stays private to its
			// (single-threaded) client, so traces do not depend on how the
			// pool interleaves workers. The factory is consumed here; a nil
			// recorder for a client means that client is unobserved.
			c.Recorder = cfg.RecorderFor(i)
			c.RecorderFor = nil
		}
		m, err := runClient(c, src, newFeed)
		if err != nil {
			return fmt.Errorf("client %d: %w", i, err)
		}
		fm.PerClient[i] = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Aggregate in client order after the pool drains so floating-point
	// accumulation order (and thus every aggregate) is deterministic.
	var abort, latency stats.Accumulator
	for _, m := range fm.PerClient {
		abort.Add(m.AbortRate)
		latency.Add(m.MeanLatency)
	}
	fm.MeanAbortRate = abort.Mean()
	fm.StdAbortRate = abort.Std()
	fm.MeanLatency = latency.Mean()
	fm.StdLatency = latency.Std()
	fm.ServerCycles = src.Produced()
	return fm, nil
}
