// Package bpush is a library for scalable processing of read-only
// transactions in broadcast-push data delivery, implementing the full
// suite of methods from Pitoura & Chrysanthis, "Scalable Processing of
// Read-Only Transactions in Broadcast Push" (ICDCS 1999).
//
// A server repetitively broadcasts the content of a database; clients run
// read-only transactions entirely locally, using small amounts of control
// information carried on the broadcast — invalidation reports, older
// versions, or serialization-graph deltas — to guarantee that every
// committed transaction reads a subset of a consistent database state.
// Because clients never contact the server, throughput is independent of
// the client population.
//
// # Choosing a scheme
//
//   - InvalidationOnly: minimal overhead (~1% broadcast growth), most
//     current view, most aborts under contention.
//   - VersionedCache: invalidation-only plus a versioned client cache; a
//     disturbed transaction continues from old-enough cache entries.
//   - MultiversionBroadcast: the server keeps S older versions on air;
//     no aborts for transactions spanning <= S cycles, at ~12% broadcast
//     growth (S=3) and extra latency for old-version reads.
//   - MultiversionCache: old versions retained in the client cache
//     instead of on air.
//   - SGT: client-side serialization-graph testing; the highest accept
//     rates at moderate server activity, at the price of shipping graph
//     deltas and per-read cycle tests.
//
// # Quick start
//
//	scheme, err := bpush.NewScheme(bpush.SchemeOptions{
//		Kind:      bpush.SGT,
//		CacheSize: 100,
//	})
//	// attach it to a broadcast feed (simulated or TCP):
//	tuner, err := bpush.DialTuner(addr)
//	cl, err := bpush.NewClient(scheme, tuner, bpush.ClientConfig{ThinkTime: 2})
//	res, err := cl.RunQuery([]bpush.ItemID{3, 17, 256})
//
// Or run the paper's simulation model directly:
//
//	cfg := bpush.DefaultSimConfig()
//	cfg.Scheme = bpush.SchemeOptions{Kind: bpush.InvalidationOnly}
//	metrics, err := bpush.Simulate(cfg)
//
// The cmd/ directory ships four tools: bpush-sim (single simulation runs),
// bpush-exp (regenerates every figure and table of the paper's
// evaluation), bpush-cast (a live TCP broadcast station), and
// bpush-inspect (broadcast layout and size accounting).
package bpush

import (
	"bpush/internal/broadcast"
	"bpush/internal/client"
	"bpush/internal/core"
	"bpush/internal/cyclesource"
	"bpush/internal/index"
	"bpush/internal/model"
	"bpush/internal/netcast"
	"bpush/internal/sim"
	"bpush/internal/workload"
)

// Core data-model types.
type (
	// ItemID identifies a broadcast data item (1-based).
	ItemID = model.ItemID
	// Cycle numbers broadcast cycles (1-based).
	Cycle = model.Cycle
	// Value is an item value.
	Value = model.Value
	// ReadObservation is one read of a committed transaction.
	ReadObservation = model.ReadObservation
)

// Scheme construction.
type (
	// Scheme processes read-only transactions at the client.
	Scheme = core.Scheme
	// SchemeOptions selects and configures a scheme.
	SchemeOptions = core.Options
	// SchemeKind enumerates the methods.
	SchemeKind = core.Kind
	// CommitInfo describes a committed read-only transaction.
	CommitInfo = core.CommitInfo
)

// The five methods of the paper.
const (
	InvalidationOnly      = core.KindInvOnly
	VersionedCache        = core.KindVCache
	MultiversionBroadcast = core.KindMVBroadcast
	MultiversionCache     = core.KindMVCache
	SGT                   = core.KindSGT
)

// Sentinel errors surfaced by schemes.
var (
	// ErrAborted marks an aborted read-only transaction.
	ErrAborted = core.ErrAborted
)

// NewScheme constructs the scheme selected by opts.
func NewScheme(opts SchemeOptions) (Scheme, error) { return core.New(opts) }

// Client runtime.
type (
	// Client drives a scheme over a broadcast feed.
	Client = client.Client
	// ClientConfig configures think time and disconnection injection.
	ClientConfig = client.Config
	// QueryResult is the outcome of one read-only transaction.
	QueryResult = client.QueryResult
	// Feed supplies consecutive becasts.
	Feed = client.Feed
	// Becast is the content of one broadcast cycle.
	Becast = broadcast.Bcast
)

// NewClient creates a client runtime over a feed.
func NewClient(s Scheme, f Feed, cfg ClientConfig) (*Client, error) {
	return client.New(s, f, cfg)
}

// Simulation (the §5 performance model).
type (
	// SimConfig holds every parameter of the paper's simulation model.
	SimConfig = sim.Config
	// SimMetrics summarizes a simulation run.
	SimMetrics = sim.Metrics
	// FleetMetrics summarizes a multi-client population run.
	FleetMetrics = sim.FleetMetrics
)

// DefaultSimConfig returns the paper's default operating point.
func DefaultSimConfig() SimConfig { return sim.DefaultConfig() }

// Simulate runs one simulation.
func Simulate(cfg SimConfig) (*SimMetrics, error) { return sim.Run(cfg) }

// SimulateFleet runs a population of independent clients over one
// broadcast stream — the scalability experiment: per-client performance
// is independent of the fleet size. Broadcast cycles are produced exactly
// once by a shared CycleSource and replayed to every client; clients run
// on a worker pool of cfg.Parallel goroutines (0 = one per CPU) with
// results byte-identical to a serial run.
func SimulateFleet(cfg SimConfig, clients int) (*FleetMetrics, error) {
	return sim.RunFleet(cfg, clients)
}

// Cycle production. A CycleSource produces each broadcast cycle — server
// transaction commits, becast assembly, optional oracle archiving —
// exactly once into a replayable cycle log; any number of consumers
// (simulated clients, network stations, inspectors) read the shared
// stream through independent cursors.
type (
	// CycleSource is the produce-once broadcast cycle generator.
	CycleSource = cyclesource.Source
	// CycleSourceConfig configures a CycleSource.
	CycleSourceConfig = cyclesource.Config
	// CycleFeed is one consumer's cursor over a CycleSource; it
	// implements Feed.
	CycleFeed = cyclesource.Feed
)

// NewCycleSource builds a cycle producer.
func NewCycleSource(cfg CycleSourceConfig) (*CycleSource, error) {
	return cyclesource.New(cfg)
}

// Network broadcast.
type (
	// Station broadcasts a synthetic-workload database over TCP.
	Station = netcast.Station
	// StationConfig configures a station.
	StationConfig = netcast.StationConfig
	// Broadcaster fans becast frames out to TCP subscribers.
	Broadcaster = netcast.Broadcaster
	// Tuner subscribes to a broadcaster; it implements Feed.
	Tuner = netcast.Tuner
	// ServerWorkload parameterizes the synthetic update stream.
	ServerWorkload = workload.ServerConfig
)

// NewStation starts a broadcast station.
func NewStation(cfg StationConfig) (*Station, error) { return netcast.NewStation(cfg) }

// DialTuner subscribes to a station.
func DialTuner(addr string) (*Tuner, error) { return netcast.Dial(addr) }

// Selective tuning (§2.1): on-air directory information for
// battery-constrained clients.
type (
	// IndexTree is a k-ary search index over the data segment.
	IndexTree = index.Tree
	// IndexEntry maps a search key to its data-segment slot.
	IndexEntry = index.Entry
	// IndexLayout is a (1,m) index-replication layout with access-time
	// and tuning-time (energy) analysis.
	IndexLayout = index.Layout
)

// BuildIndex constructs an index over a becast's items with the given
// fanout.
func BuildIndex(b *Becast, fanout int) (*IndexTree, error) {
	return index.FromBcast(b, fanout)
}

// NewIndexLayout builds a (1,m) layout; see IndexLayout.
func NewIndexLayout(dataSlots, indexBuckets, m, probes int) (IndexLayout, error) {
	return index.NewLayout(dataSlots, indexBuckets, m, probes)
}

// OptimalIndexReplication returns the m minimizing expected access
// latency: sqrt(dataSlots/indexBuckets).
func OptimalIndexReplication(dataSlots, indexBuckets int) int {
	return index.OptimalM(dataSlots, indexBuckets)
}
