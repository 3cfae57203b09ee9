// Package sim implements the cycle-driven simulation of §5.1 of Pitoura &
// Chrysanthis: a server committing N update transactions per broadcast
// cycle, the becast assembly, and clients running read-only queries
// through one of the core schemes. All randomness derives from a single
// seed, and the server-side workload stream is independent of the scheme
// under test, so different schemes can be compared on identical histories.
//
// Cycle production and consumption are decoupled: a cyclesource.Source
// produces each broadcast cycle (server commits, becast assembly, oracle
// archive snapshot) exactly once into a replayable log, and any number of
// clients consume the shared, immutable stream through per-client feeds.
// Run drives a single client; RunFleet drives a population on a bounded
// worker pool over one source — the paper's architecture, where server
// work is independent of who is listening.
//
// The simulator optionally checks every committed query against a
// correctness oracle: schemes that name a serialization cycle are checked
// value-by-value against the archived database state of that cycle
// (Theorems 1, 2, 4, 5), and SGT commits are checked by rebuilding the full
// serialization graph with the query's dependency and precedence edges and
// asserting acyclicity (Theorem 3).
package sim

import (
	"errors"
	"fmt"
	"math/rand"

	"bpush/internal/bdisk"
	"bpush/internal/broadcast"
	"bpush/internal/client"
	"bpush/internal/core"
	"bpush/internal/cyclesource"
	"bpush/internal/fault"
	"bpush/internal/obs"
	"bpush/internal/stats"
	"bpush/internal/workload"
)

// Config collects every parameter of the performance model (Figure 4) plus
// run control. DefaultConfig returns the paper's defaults.
type Config struct {
	// Server and broadcast parameters.
	DBSize         int     // D: broadcast size in items
	UpdateRange    int     // update distribution range
	Offset         int     // update-vs-client-read pattern deviation
	Theta          float64 // Zipf parameter
	ServerTx       int     // N: transactions committed per cycle
	Updates        int     // U: updates per cycle
	ReadsPerUpdate int     // server read:write ratio
	ServerVersions int     // S: versions the server keeps on air
	// ProducerWorkers is the worker count of the server's
	// plan/place/execute commit pipeline; 0 or 1 runs it
	// single-threaded. The cycle stream — metrics and traces included —
	// is byte-identical at every setting (the producer differential
	// suite pins this), so the knob is purely a throughput lever.
	ProducerWorkers int

	// Scheme under test.
	Scheme core.Options

	// Client parameters.
	ReadRange      int
	OpsPerQuery    int
	ThinkTime      int
	DisconnectProb float64

	// Fault, when non-zero, interposes a deterministic fault injector
	// between the cycle stream and each client: frames are dropped,
	// corrupted, truncated, duplicated, reordered, or lost in bursts per
	// the plan's probabilities. Faults are per client (independent
	// receivers of a shared channel); each client's injector is seeded
	// from its own seed, so any run replays exactly from (Seed, Fault).
	Fault fault.Plan
	// FaultSeed overrides the per-client fault seed; 0 derives it from
	// the client seed, which keeps a drop-only plan byte-identical to the
	// equivalent DisconnectProb schedule. RunFleet leaves it 0 so every
	// client draws independent faults.
	FaultSeed int64

	// Broadcast organization: with DiskFreq >= 2, items 1..DiskHot are
	// placed on a fast broadcast disk spinning DiskFreq times per cycle
	// (the §7 broadcast-disk extension); zero means the flat program.
	DiskHot  int
	DiskFreq int
	// Intervals enables the §7 h-interval organization: the broadcast
	// period is split into this many intervals, each carrying 1/H of the
	// item space plus an invalidation report covering the interval. The
	// simulator then treats every interval as one (short) cycle: commits
	// happen H times per period and reports are H times as frequent.
	// Zero or one keeps the classic whole-period cycle. Must divide
	// DBSize, ServerTx, and Updates; incompatible with broadcast disks.
	Intervals int

	// Run control.
	Queries      int   // measured queries
	Warmup       int   // unmeasured queries to reach steady state
	Seed         int64 // master seed (drives the server-side workload)
	ClientSeed   int64 // client-side seed; 0 derives it from Seed. RunFleet sets it per client so a fleet shares one broadcast stream.
	Check        bool  // enable the correctness oracle
	OracleWindow int   // archived cycles for the oracle (default 512)
	// Parallel is the worker-pool size RunFleet uses to run clients over
	// the shared cycle stream: 1 forces the serial path, 0 (the default)
	// means one worker per CPU. Results are byte-identical either way —
	// each client's execution is a pure function of the config, its seed,
	// and the (deterministic) shared stream.
	Parallel int

	// Recorder, when non-nil, receives the client-side trace events of a
	// single-client Run: the scheme's reads/invalidations/SG tests and the
	// client runtime's cycle and query outcomes, interleaved in execution
	// order. The stream is single-threaded and virtual-timed, so it is
	// byte-identical across same-seed runs.
	Recorder obs.Recorder
	// RecorderFor, when non-nil, supplies one recorder per fleet client
	// (index 0..clients-1). Per-client recorders are what keep parallel
	// fleet traces deterministic: each client's stream is recorded
	// separately (a shared sink would interleave by worker scheduling),
	// and callers concatenate the buffers in client index order. Run uses
	// RecorderFor(0) when Recorder is nil.
	RecorderFor func(client int) obs.Recorder
	// SourceRecorder, when non-nil, receives the producer-side trace
	// events (cycle production, SG deltas). Production is serialized
	// under the source's lock, so this stream is deterministic even with
	// a parallel fleet racing to trigger production.
	SourceRecorder obs.Recorder

	// LogDir, when non-empty, makes the run's cycle log durable: every
	// produced becast is appended to a segmented disk log in this
	// directory, and a later run over the same directory resumes the
	// identical stream instead of reproducing it. See
	// cyclesource.Config.LogDir.
	LogDir string
	// MemCycles bounds the in-memory cycle window when LogDir is set;
	// older cycles are served from disk. Zero keeps every cycle resident.
	MemCycles int
	// SnapshotEvery is the producer snapshot cadence in cycles when
	// LogDir is set (0 = cyclesource default, negative disables).
	SnapshotEvery int
}

// DefaultConfig returns the paper's default operating point: D=1000,
// UpdateRange=500, theta=0.95, offset 100, N=10 server transactions, U=50
// updates per cycle, reads 4x updates, ReadRange=1000, 10 ops per query,
// think time 2 slots, 100-page cache (set on the Scheme by callers).
func DefaultConfig() Config {
	return Config{
		DBSize:         1000,
		UpdateRange:    500,
		Offset:         100,
		Theta:          0.95,
		ServerTx:       10,
		Updates:        50,
		ReadsPerUpdate: 4,
		ServerVersions: 1,
		ReadRange:      1000,
		OpsPerQuery:    10,
		ThinkTime:      2,
		Queries:        2000,
		Warmup:         100,
		Seed:           1,
		Check:          false,
		OracleWindow:   512,
	}
}

func (c Config) validate() error {
	if c.DBSize <= 0 || c.ReadRange <= 0 || c.ReadRange > c.DBSize {
		return fmt.Errorf("sim: invalid DBSize/ReadRange %d/%d", c.DBSize, c.ReadRange)
	}
	if c.ServerVersions < 1 {
		return fmt.Errorf("sim: ServerVersions must be >= 1, got %d", c.ServerVersions)
	}
	if c.Queries <= 0 || c.Warmup < 0 {
		return fmt.Errorf("sim: invalid Queries/Warmup %d/%d", c.Queries, c.Warmup)
	}
	if c.OracleWindow < 8 {
		return fmt.Errorf("sim: OracleWindow must be >= 8, got %d", c.OracleWindow)
	}
	if err := c.Fault.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if c.Intervals > 1 {
		if c.DiskFreq >= 2 {
			return fmt.Errorf("sim: h-interval organization is incompatible with broadcast disks")
		}
		if c.DBSize%c.Intervals != 0 || c.ServerTx%c.Intervals != 0 || c.Updates%c.Intervals != 0 {
			return fmt.Errorf("sim: Intervals=%d must divide DBSize=%d, ServerTx=%d, and Updates=%d",
				c.Intervals, c.DBSize, c.ServerTx, c.Updates)
		}
	}
	return nil
}

// Metrics summarizes one run.
type Metrics struct {
	SchemeName string

	Queries   int
	Committed int
	Aborted   int

	AbortRate  float64
	AcceptRate float64

	// MeanLatency and MeanSpan are in broadcast cycles, over committed
	// queries only (matching the paper's latency metric).
	MeanLatency float64
	MeanSpan    float64
	// MeanLatencySlots is the same latency in broadcast slots, the
	// right unit when comparing organizations with different cycle
	// lengths (broadcast disks, multiversion overflow).
	MeanLatencySlots float64
	// MeanStaleness is the mean distance, in cycles, between a committed
	// query's commit cycle and the database state it serialized against
	// — the currency metric of §5.2.2 (0 = the most current view).
	// SGT commits have no named state and are excluded.
	MeanStaleness float64
	// MeanReadAge is the mean version age, in cycles, over every read of
	// every committed query: commit cycle minus the version cycle the
	// read observed. Unlike MeanStaleness it is defined for all schemes
	// (SGT included) and weights each read, not each query — the per-read
	// currency the staleness trace events histogram.
	MeanReadAge float64

	CacheHitRate     float64 // fraction of reads served from cache
	OverflowReadRate float64 // fraction of reads served from overflow
	MeanBcastSlots   float64 // mean becast length (data + overflow slots)

	Cycles        uint64 // broadcast cycles this client consumed
	OracleChecked int
	OracleSkipped int

	// MissedCycles counts cycles the client lost to disconnections or
	// injected faults (dropped, corrupted, or truncated frames and
	// undeclared gaps); StaleFrames counts duplicated or reordered frames
	// the receive path discarded.
	MissedCycles int
	StaleFrames  int
}

// NewSource builds the cycle producer for this configuration: the
// becast stream every client of the run consumes. Exposed so callers can
// share one producer across custom consumers; Run and RunFleet construct
// their own.
func (c Config) NewSource() (*cyclesource.Source, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	intervals := c.Intervals
	if intervals < 1 {
		intervals = 1
	}
	var prog broadcast.Program
	if c.DiskFreq >= 2 {
		var err error
		prog, err = bdisk.TwoDisk(c.DBSize, c.DiskHot, c.DiskFreq)
		if err != nil {
			return nil, err
		}
	}
	return cyclesource.New(cyclesource.Config{
		DBSize:   c.DBSize,
		Versions: c.ServerVersions,
		Workers:  c.ProducerWorkers,
		Recorder: c.SourceRecorder,
		Workload: workload.ServerConfig{
			DBSize:          c.DBSize,
			UpdateRange:     c.UpdateRange,
			Offset:          c.Offset,
			Theta:           c.Theta,
			TxPerCycle:      c.ServerTx / intervals,
			UpdatesPerCycle: c.Updates / intervals,
			ReadsPerUpdate:  c.ReadsPerUpdate,
		},
		Seed:          c.Seed,
		Program:       prog,
		Chunks:        intervals,
		Check:         c.Check,
		OracleWindow:  c.OracleWindow,
		LogDir:        c.LogDir,
		MemCycles:     c.MemCycles,
		SnapshotEvery: c.SnapshotEvery,
	})
}

// Run executes one simulation: one producer, one client.
func Run(cfg Config) (*Metrics, error) {
	src, err := cfg.NewSource()
	if err != nil {
		return nil, err
	}
	defer func() { _ = src.Close() }()
	return runClient(cfg, src, sourceFeed)
}

// feed is one client's cursor over the shared cycle stream.
type feed interface {
	fault.Feed
	Cycles() uint64
	Lens() []int
}

// sourceFeed opens a client's cursor on src: the source's own feed, whose
// becasts the producer primed and every client shares.
func sourceFeed(src *cyclesource.Source) feed { return src.NewFeed() }

// runClient consumes the shared cycle stream with one client, reading it
// through newFeed(src), and collects its metrics. It is a pure function
// of (cfg, cfg.ClientSeed, the stream), which is what makes fleet results
// independent of worker interleaving.
func runClient(cfg Config, src *cyclesource.Source, newFeed func(*cyclesource.Source) feed) (*Metrics, error) {
	clientSeed := cfg.ClientSeed
	if clientSeed == 0 {
		clientSeed = cfg.Seed + 1
	}
	qgen, err := workload.NewQueryGen(workload.ClientConfig{
		ReadRange:   cfg.ReadRange,
		Theta:       cfg.Theta,
		OpsPerQuery: cfg.OpsPerQuery,
	}, rand.New(rand.NewSource(clientSeed)))
	if err != nil {
		return nil, err
	}
	rec := cfg.Recorder
	if rec == nil && cfg.RecorderFor != nil {
		rec = cfg.RecorderFor(0)
	}
	sopts := cfg.Scheme
	sopts.Recorder = rec
	scheme, err := core.New(sopts)
	if err != nil {
		return nil, err
	}
	feed := newFeed(src)
	ccfg := client.Config{
		ThinkTime:      cfg.ThinkTime,
		DisconnectProb: cfg.DisconnectProb,
		Seed:           clientSeed + 1,
		Recorder:       rec,
	}
	var cl *client.Client
	if cfg.Fault.IsZero() {
		cl, err = client.New(scheme, feed, ccfg)
	} else {
		// The injector's default seed is the same one the client's
		// disconnect RNG would use, so a drop-only plan replays the exact
		// DisconnectProb schedule.
		fseed := cfg.FaultSeed
		if fseed == 0 {
			fseed = clientSeed + 1
		}
		var inj *fault.Injector
		inj, err = fault.New(feed, cfg.Fault, fseed)
		if err != nil {
			return nil, err
		}
		inj.Observe(rec)
		cl, err = client.NewFromEvents(scheme, inj, ccfg)
	}
	if err != nil {
		return nil, err
	}

	m := &Metrics{SchemeName: scheme.Name()}
	var latency, latencySlots, span, bcastLen, staleness, readAge stats.Accumulator
	var reads, cacheReads, overflowReads int

	total := cfg.Warmup + cfg.Queries
	for q := 0; q < total; q++ {
		res, err := cl.RunQuery(qgen.Query())
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", q, err)
		}
		if cfg.Check && res.Committed {
			if err := src.Check(res.Info); err != nil {
				if errors.Is(err, cyclesource.ErrOracleWindow) {
					m.OracleSkipped++
				} else {
					return nil, fmt.Errorf("query %d: ORACLE VIOLATION: %w", q, err)
				}
			} else {
				m.OracleChecked++
			}
		}
		if q < cfg.Warmup {
			continue
		}
		m.Queries++
		if res.Committed {
			m.Committed++
			latency.Add(float64(res.LatencyCycles))
			latencySlots.Add(float64(res.LatencySlots))
			span.Add(float64(res.Span))
			if res.Info.SerializationCycle != 0 {
				staleness.Add(float64(res.Info.CommitCycle - res.Info.SerializationCycle))
			}
			for _, ro := range res.Info.Reads {
				readAge.Add(float64(res.Info.CommitCycle - ro.Version))
			}
		} else {
			m.Aborted++
		}
		reads += res.Reads
		cacheReads += res.CacheReads
		overflowReads += res.OverflowReads
	}

	m.AbortRate = float64(m.Aborted) / float64(m.Queries)
	m.AcceptRate = float64(m.Committed) / float64(m.Queries)
	m.MeanLatency = latency.Mean()
	m.MeanLatencySlots = latencySlots.Mean()
	m.MeanSpan = span.Mean()
	m.MeanStaleness = staleness.Mean()
	m.MeanReadAge = readAge.Mean()
	if reads > 0 {
		m.CacheHitRate = float64(cacheReads) / float64(reads)
		m.OverflowReadRate = float64(overflowReads) / float64(reads)
	}
	m.Cycles = feed.Cycles()
	for _, l := range feed.Lens() {
		bcastLen.Add(float64(l))
	}
	m.MeanBcastSlots = bcastLen.Mean()
	m.MissedCycles = cl.Missed()
	m.StaleFrames = cl.Stale()
	return m, nil
}
