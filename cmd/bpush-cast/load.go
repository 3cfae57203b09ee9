package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bpush/internal/client"
	"bpush/internal/core"
	"bpush/internal/model"
	"bpush/internal/netcast"
	"bpush/internal/obs"
	"bpush/internal/workload"
)

// The -load mode turns bpush-cast into a fan-out load harness: it
// attaches thousands of in-process (or TCP) tuners to its own station
// and measures the three costs that decide whether broadcast push
// scales with the audience —
//
//   - accept: how fast subscribers can join,
//   - broadcast: on-air time (how long the broadcast path is held per
//     cycle) and sustained time (until every subscriber's queue has
//     drained),
//   - eviction: how fast a stalled audience is swept off the
//     broadcaster once every bounded queue is full.

// loadOptions is the -load* flag set.
type loadOptions struct {
	// Tuners > 0 selects load mode with that many subscribers.
	Tuners int
	// Cycles to broadcast during the measured phase.
	Cycles int
	// Transport is "mem" (in-process conns, no descriptors — the only
	// way to 10k subscribers under default ulimits) or "tcp" (real
	// loopback sockets).
	Transport string
	// Out is the JSON report path; empty writes the report to stdout.
	Out string
	// Clients is the number of measured scheme clients: real core.Scheme
	// instances driven over their own tuners, whose per-query wall time
	// feeds the read tier and whose per-read staleness events feed the
	// per-scheme histograms.
	Clients int
	// SampleSet records that -sample was given explicitly; load mode
	// samples by default, but an explicit -sample=false turns the
	// instrumentation off for A/B overhead measurement.
	SampleSet bool
}

func (o loadOptions) validate() error {
	if o.Cycles <= 0 {
		return fmt.Errorf("-load-cycles must be positive, got %d", o.Cycles)
	}
	if o.Transport != "mem" && o.Transport != "tcp" {
		return fmt.Errorf("-load-transport must be mem or tcp, got %q", o.Transport)
	}
	if o.Clients < 0 {
		return fmt.Errorf("-load-clients must be non-negative, got %d", o.Clients)
	}
	return nil
}

// loadReport is the JSON document a load run emits.
type loadReport struct {
	Mode      string `json:"mode"` // always "sharded"
	Transport string `json:"transport"`
	Tuners    int    `json:"tuners"`
	Cycles    int    `json:"cycles"`
	DBSize    int    `json:"db_size"`
	Shards    int    `json:"shards,omitempty"`
	QueueLen  int    `json:"queue_len,omitempty"`

	// Accept phase.
	AcceptNs     int64   `json:"accept_ns"`
	AcceptPerSec float64 `json:"accepts_per_sec"`

	// Broadcast phase (per measured cycle, averaged).
	OnAirNsPerCycle     int64   `json:"on_air_ns_per_cycle"`
	SustainedNsPerCycle int64   `json:"sustained_ns_per_cycle"`
	FrameBytes          int64   `json:"frame_bytes"`
	DeliveredFrames     int64   `json:"delivered_frames"`
	DeliveredPerSec     float64 `json:"delivered_frames_per_sec"`

	// Eviction phase (sharded only): the audience stops draining and is
	// swept off by queue-overflow evictions.
	Evictions        int64   `json:"evictions,omitempty"`
	EvictionSweepNs  int64   `json:"eviction_sweep_ns,omitempty"`
	EvictionsPerSec  float64 `json:"evictions_per_sec,omitempty"`
	UnplannedDrops   int64   `json:"unplanned_drops"`
	TunersDecodedMin int64   `json:"tuners_decoded_min"`
	TunersDecodedMax int64   `json:"tuners_decoded_max"`

	// Measured clients (read tier + staleness).
	LoadClients   int   `json:"load_clients,omitempty"`
	ClientQueries int64 `json:"client_queries,omitempty"`

	// Durable-log mode (-log-dir): where the cycle log spills, the
	// in-memory window bound, and how many cycles the station resumed
	// from a previous run's log.
	LogDir        string `json:"log_dir,omitempty"`
	MemCycles     int    `json:"mem_cycles,omitempty"`
	ResumedCycles uint64 `json:"resumed_cycles,omitempty"`

	// Heap occupancy (post-GC HeapAlloc) bracketing the measured
	// broadcast phase: with a bounded -mem-cycles window the end value
	// stays flat however many cycles run, which is the acceptance
	// evidence for the spill path.
	HeapAllocStart uint64 `json:"heap_alloc_start"`
	HeapAllocEnd   uint64 `json:"heap_alloc_end"`

	// Metrics is the station's full registry snapshot at the end of the
	// run: the span.* latency tiers, net.queue_depth, per-shard drain
	// histograms, and the per-scheme staleness histograms. Bucket bounds
	// and counts are included, so bpush-inspect lag recomputes the
	// quantiles exactly offline.
	Metrics obs.RegistrySnapshot `json:"metrics"`
}

// tickMark is the receive-tier reference point: the wall-clock start of
// the Tick that put cycle Cycle on air. Probe tuners subtract it from
// their decode time, so span.receive_ns is the cumulative commit-to-
// decoded latency as one subscriber experiences it.
type tickMark struct {
	cycle model.Cycle
	ns    int64
}

// loadTuner is one harness subscriber: a decoding reader that counts
// the becasts it hears.
type loadTuner struct {
	conn    net.Conn
	decoded atomic.Int64
}

// runLoad executes the load harness and writes the report.
func runLoad(cfg cliConfig) error {
	if err := cfg.Load.validate(); err != nil {
		return err
	}
	st := cfg.Station
	st.Interval = 0 // the harness paces cycles itself
	// Load mode measures the latency tiers by default — the report's
	// whole point is attribution — unless -sample=false asks for the
	// uninstrumented baseline (the A/B behind BENCH_latency.json).
	if !cfg.Load.SampleSet {
		st.Sample = true
	}
	if cfg.Load.Transport == "mem" && st.Cast.LocalBufSize == 0 {
		// 10k tuners at the socket-default 64 KiB per direction would
		// need >1 GiB of ring buffers; 8 KiB still holds several frames.
		st.Cast.LocalBufSize = 8 << 10
	}
	station, err := netcast.NewStation(st)
	if err != nil {
		return err
	}
	defer func() { _ = station.Close() }()

	rep := loadReport{
		Mode:      "sharded",
		Transport: cfg.Load.Transport,
		Tuners:    cfg.Load.Tuners,
		Cycles:    cfg.Load.Cycles,
		DBSize:    st.DBSize,
	}
	rep.Shards = st.Cast.Shards
	if rep.Shards == 0 {
		rep.Shards = netcast.DefaultShards
	}
	rep.QueueLen = st.Cast.QueueLen
	if rep.QueueLen == 0 {
		rep.QueueLen = netcast.DefaultQueueLen
	}

	// Accept phase: attach every tuner and start its decode loop.
	tuners := make([]*loadTuner, cfg.Load.Tuners)
	stopRead := make(chan struct{})
	var readers sync.WaitGroup
	acceptStart := time.Now()
	for i := range tuners {
		var conn net.Conn
		if cfg.Load.Transport == "mem" {
			conn, err = station.Cast().SubscribeLocal()
		} else {
			conn, err = net.Dial("tcp", station.Addr())
		}
		if err != nil {
			close(stopRead)
			return fmt.Errorf("attach tuner %d: %w", i, err)
		}
		tuners[i] = &loadTuner{conn: conn}
	}
	// TCP attach is asynchronous (accept loop); wait for registration.
	deadline := time.Now().Add(30 * time.Second)
	for station.Subscribers() < cfg.Load.Tuners {
		if time.Now().After(deadline) {
			close(stopRead)
			return fmt.Errorf("only %d/%d tuners registered", station.Subscribers(), cfg.Load.Tuners)
		}
		runtime.Gosched()
	}
	rep.AcceptNs = time.Since(acceptStart).Nanoseconds()
	rep.AcceptPerSec = float64(cfg.Load.Tuners) / time.Since(acceptStart).Seconds()

	// Receive tier: every DefaultSampleStride-th tuner is a probe. The
	// measured loop publishes a tickMark per cycle; a probe that decodes
	// that cycle's frame observes decode-time minus tick-start into
	// span.receive_ns through the station's registry recorder.
	var mark atomic.Pointer[tickMark]
	rec := station.ClientRecorder()
	for i, lt := range tuners {
		probe := i%netcast.DefaultSampleStride == 0
		readers.Add(1)
		go func(lt *loadTuner, probe bool) {
			defer readers.Done()
			tn := netcast.TuneBuffered(lt.conn, 4096)
			for {
				select {
				case <-stopRead:
					return
				default:
				}
				b, err := tn.Next()
				if err != nil {
					return
				}
				lt.decoded.Add(1)
				if probe {
					if m := mark.Load(); m != nil && m.cycle == b.Cycle {
						rec.Record(obs.Event{Type: obs.TypeSpan, T: obs.At(b.Cycle, 0), Reason: obs.SpanReceive, N: time.Now().UnixNano() - m.ns})
					}
				}
			}
		}(lt, probe)
	}

	// Read tier + staleness: measured scheme clients run real queries
	// over their own tuners. They attach after the audience so the
	// accept-phase numbers stay comparable across runs.
	clients, err := startLoadClients(cfg, station, rec)
	if err != nil {
		close(stopRead)
		return err
	}
	rep.LoadClients = len(clients.conns)
	rep.LogDir = st.LogDir
	rep.MemCycles = st.MemCycles
	if st.LogDir != "" {
		rep.ResumedCycles = station.Source().Produced()
	}
	rep.HeapAllocStart = heapAlloc()

	// Broadcast phase: one warm-up cycle (the initial database load is a
	// much larger frame), then the measured cycles. On-air time is the
	// Tick call itself — produce, encode once, and hand the frame to the
	// fan-out tier; sustained time additionally waits for every
	// subscriber queue to drain, i.e. full delivery.
	bc := station.Cast()
	if err := station.Tick(); err != nil {
		return err
	}
	if err := waitQueueDrain(bc, 60*time.Second); err != nil {
		return err
	}
	bytesBefore := bc.Traffic().BytesSent
	framesBefore := bc.Traffic().FramesSent
	// The warm-up tick consumed source index 0 and cycle numbers advance
	// by one per tick, so measured tick c will broadcast base+c+1. The
	// mark is published before the tick — the frame cannot reach a probe
	// earlier — and a wrong prediction only makes probes skip samples
	// (cycle mismatch), never misattribute them.
	base, err := station.Source().Get(0)
	if err != nil {
		return err
	}
	var onAir, sustained time.Duration
	for c := 0; c < cfg.Load.Cycles; c++ {
		t0 := time.Now()
		mark.Store(&tickMark{cycle: base.Cycle + model.Cycle(c+1), ns: t0.UnixNano()})
		if err := station.Tick(); err != nil {
			return err
		}
		onAir += time.Since(t0)
		if err := waitQueueDrain(bc, 60*time.Second); err != nil {
			return err
		}
		sustained += time.Since(t0)
	}
	mark.Store(nil)
	rep.HeapAllocEnd = heapAlloc()
	tr := bc.Traffic()
	rep.OnAirNsPerCycle = onAir.Nanoseconds() / int64(cfg.Load.Cycles)
	rep.SustainedNsPerCycle = sustained.Nanoseconds() / int64(cfg.Load.Cycles)
	rep.DeliveredFrames = tr.FramesSent - framesBefore
	rep.DeliveredPerSec = float64(rep.DeliveredFrames) / sustained.Seconds()
	if rep.DeliveredFrames > 0 {
		rep.FrameBytes = (tr.BytesSent - bytesBefore) / rep.DeliveredFrames
	}

	// Stop the measured clients before the eviction phase: their
	// continuous drains would keep their queues from overflowing and
	// hold Subscribers above zero forever.
	rep.ClientQueries = clients.stop()

	// Eviction phase: the audience stops draining, queues fill, and the
	// next broadcasts sweep every subscriber off. A tuner blocked
	// mid-read may consume one more frame before it parks for good;
	// eviction closing its conn unblocks it either way.
	close(stopRead)
	evictStart := time.Now()
	for station.Subscribers() > 0 {
		if err := station.Tick(); err != nil {
			return err
		}
		if time.Since(evictStart) > 60*time.Second {
			return fmt.Errorf("eviction sweep stalled: %d subscribers left", station.Subscribers())
		}
	}
	sweep := time.Since(evictStart)
	rep.Evictions = bc.Traffic().Evictions
	rep.EvictionSweepNs = sweep.Nanoseconds()
	rep.EvictionsPerSec = float64(rep.Evictions) / sweep.Seconds()
	rep.UnplannedDrops = bc.Traffic().Drops
	for _, lt := range tuners {
		_ = lt.conn.Close()
	}
	readers.Wait()
	min, max := int64(-1), int64(0)
	for _, lt := range tuners {
		d := lt.decoded.Load()
		if min < 0 || d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	rep.TunersDecodedMin, rep.TunersDecodedMax = min, max
	rep.Metrics = station.Registry().Snapshot()

	out := os.Stdout
	if cfg.Load.Out != "" {
		f, err := os.Create(cfg.Load.Out)
		if err != nil {
			return err
		}
		defer func() { _ = f.Close() }()
		out = f
	}
	return writeReport(out, rep)
}

func writeReport(w io.Writer, rep loadReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// loadClientSchemes is the rotation of measured-client configurations:
// one cache-backed invalidation-only client, one multiversion client,
// one serialization-graph client, repeating for larger -load-clients.
var loadClientSchemes = []core.Options{
	{Kind: core.KindInvOnly, CacheSize: 64},
	{Kind: core.KindMVBroadcast},
	{Kind: core.KindSGT, CacheSize: 64},
}

// loadClients tracks the measured scheme clients of a load run.
type loadClients struct {
	conns   []net.Conn
	wg      sync.WaitGroup
	queries atomic.Int64
}

// stop closes the client connections, waits for the query loops to
// observe the feed error and exit, and returns the total query count.
func (lc *loadClients) stop() int64 {
	for _, c := range lc.conns {
		_ = c.Close()
	}
	lc.wg.Wait()
	return lc.queries.Load()
}

// startLoadClients attaches cfg.Load.Clients measured clients: each one
// is a real core scheme over its own tuner, running Zipf queries in a
// loop. Per-query wall time lands in span.read_ns and the scheme's own
// staleness events land in the staleness.<scheme>.* histograms, both
// through rec (the station's registry recorder). The client runtimes
// block until the first becast — the warm-up tick releases them.
func startLoadClients(cfg cliConfig, station *netcast.Station, rec obs.Recorder) (*loadClients, error) {
	lc := &loadClients{}
	n := cfg.Load.Clients
	if n == 0 {
		return lc, nil
	}
	before := station.Subscribers()
	for i := 0; i < n; i++ {
		var conn net.Conn
		var err error
		if cfg.Load.Transport == "mem" {
			conn, err = station.Cast().SubscribeLocal()
		} else {
			conn, err = net.Dial("tcp", station.Addr())
		}
		if err != nil {
			_ = lc.stop()
			return nil, fmt.Errorf("attach measured client %d: %w", i, err)
		}
		lc.conns = append(lc.conns, conn)
	}
	deadline := time.Now().Add(30 * time.Second)
	for station.Subscribers() < before+n {
		if time.Now().After(deadline) {
			_ = lc.stop()
			return nil, fmt.Errorf("measured clients never registered")
		}
		runtime.Gosched()
	}
	for i, conn := range lc.conns {
		opts := loadClientSchemes[i%len(loadClientSchemes)]
		opts.Recorder = rec
		seed := cfg.Station.Seed + 1000 + int64(i)
		lc.wg.Add(1)
		go func(conn net.Conn, opts core.Options, seed int64) {
			defer lc.wg.Done()
			lc.runClient(cfg, conn, opts, seed, rec)
		}(conn, opts, seed)
	}
	return lc, nil
}

// runClient drives one measured client until its connection closes.
func (lc *loadClients) runClient(cfg cliConfig, conn net.Conn, opts core.Options, seed int64, rec obs.Recorder) {
	scheme, err := core.New(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bpush-cast: measured client:", err)
		return
	}
	qgen, err := workload.NewQueryGen(workload.ClientConfig{
		ReadRange:   cfg.Station.DBSize,
		Theta:       cfg.Station.Workload.Theta,
		OpsPerQuery: 4,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bpush-cast: measured client:", err)
		return
	}
	cl, err := client.New(scheme, netcast.TuneBuffered(conn, 4096), client.Config{})
	if err != nil {
		return // connection closed before the first becast
	}
	for {
		q0 := time.Now()
		_, err := cl.RunQuery(qgen.Query())
		if err != nil {
			return // feed closed: the harness is shutting the clients down
		}
		rec.Record(obs.Event{Type: obs.TypeSpan, T: obs.At(cl.Cycle(), 0), Reason: obs.SpanRead, N: time.Since(q0).Nanoseconds()})
		lc.queries.Add(1)
	}
}

// heapAlloc returns the live heap after a forced GC, so the readings
// compare retained memory rather than allocation churn.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// waitQueueDrain blocks until the fan-out queues are empty — every
// enqueued frame written out.
func waitQueueDrain(bc *netcast.Broadcaster, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for bc.QueueDepth() > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("fan-out queues did not drain (%d frames pending)", bc.QueueDepth())
		}
		runtime.Gosched()
	}
	return nil
}
