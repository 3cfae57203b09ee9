package netcast

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"bpush/internal/cyclesource"
	"bpush/internal/fault"
	"bpush/internal/model"
	"bpush/internal/obs"
	"bpush/internal/workload"
)

// StationConfig configures a broadcast station: a server database, a
// synthetic update workload, and a network broadcaster, ticking one becast
// per interval.
type StationConfig struct {
	// Addr to listen on, e.g. "127.0.0.1:0".
	Addr string
	// DBSize is D; Versions is S (versions retained for multiversion
	// broadcast, >= 1).
	DBSize   int
	Versions int
	// Workload drives the per-cycle update transactions. Its DBSize must
	// match DBSize.
	Workload workload.ServerConfig
	// Interval between becasts. Zero means the station only broadcasts
	// when Tick is called (manual mode, used by tests and the facade's
	// ExampleNewStation, which want deterministic pacing).
	Interval time.Duration
	// Seed feeds the workload generator.
	Seed int64
	// Workers > 1 spreads each cycle's commit work over that many
	// producer-pipeline workers (plan/place/execute); 0 or 1 runs the
	// pipeline single-threaded. The broadcast stream is identical at
	// every worker count.
	Workers int
	// Fault, when non-zero, damages frames channel-side before they go on
	// air: every subscriber hears the same mangled stream, as with a
	// shared physical channel. Per-client (independent) faults belong in
	// the client-side injector instead.
	Fault fault.Plan
	// FaultSeed seeds the fault RNG; 0 derives it from Seed.
	FaultSeed int64
	// Cast tunes the fan-out tier: shard count, per-subscriber queue
	// bound, and write timeout. The zero value selects the defaults.
	Cast Config
	// HTTPAddr, when non-empty, serves the station's live metrics over
	// HTTP (e.g. "127.0.0.1:0"): GET /metricsz renders the metric
	// registry as JSON, GET /statusz a plain-text operator summary, and
	// GET /tracez the most recent trace events.
	HTTPAddr string
	// Sample enables wall-clock latency attribution: the tick loop
	// measures the commit and on-air tiers into span.* histograms and
	// the broadcaster samples per-subscriber queue depth and per-shard
	// drain latency (SampleLag). The clock is read only through
	// obs.WallSampler; with Sample false no code on the broadcast path
	// touches the clock at all.
	Sample bool
	// SampleStride is the subscriber-id stride of the broadcaster's lag
	// sampling (every stride-th subscriber is stamped). Zero means
	// DefaultSampleStride.
	SampleStride int
	// Pprof additionally mounts net/http/pprof on the metrics server
	// (requires HTTPAddr). Off by default: profiling endpoints are
	// opt-in on an operator surface.
	Pprof bool
	// LogDir, when non-empty, makes the station durable: every produced
	// cycle is appended to the segmented disk log in this directory
	// before it goes on air, and a station restarted over the same
	// directory resumes the broadcast at the next cycle of the same
	// deterministic stream. See cyclesource.Config.LogDir.
	LogDir string
	// MemCycles bounds the in-memory cycle window once LogDir is set:
	// only the newest MemCycles becasts stay resident and older cycles
	// are decoded from disk on demand, so a long-running station's
	// memory stays flat. Zero keeps every cycle in memory.
	MemCycles int
	// SnapshotEvery is the producer snapshot cadence in cycles (0 =
	// cyclesource.DefaultSnapshotEvery, negative disables). Snapshots
	// bound how many cycles a restart replays.
	SnapshotEvery int
}

// traceRing bounds the in-memory trace buffer behind /tracez, in events.
const traceRing = 1024

// DefaultSampleStride is the lag-sampling subscriber stride when
// StationConfig.SampleStride is zero: at 10k subscribers roughly 150
// clock reads and histogram observations per broadcast — plenty for
// stable quantiles while keeping the sampling overhead inside run-to-run
// noise on both the on-air walk and the writer drain path, as an A/B of
// sampled against unsampled 10k-tuner runs showed.
const DefaultSampleStride = 64

// Station periodically takes the next cycle from a shared cyclesource
// producer and broadcasts its frame to all subscribers. Production and
// wire encoding happen exactly once per cycle no matter how many
// subscribers are connected — the source encodes the cycle once and the
// Broadcaster fans that one frame out — so station cost per cycle is
// independent of the audience size.
type Station struct {
	cfg   StationConfig
	src   *cyclesource.Source
	bc    *Broadcaster
	reg   *obs.Registry
	ring  *obs.Ring
	rec   obs.Recorder   // ring + registry tee, the producer-side sink
	fold  *regRecorder   // the registry half of rec, shared with clients
	clock obs.Sampler    // non-nil iff cfg.Sample: the tick loop's tier clock
	http  *metricsServer // nil unless cfg.HTTPAddr

	mu      sync.Mutex
	next    int // index of the next cycle to put on air
	mangler *fault.Mangler

	stop chan struct{}
	done chan struct{}
}

// regRecorder folds trace events into the station's metric registry: one
// counter per event type, per-kind fault counters, per-phase producer
// pipeline unit counters, the producer's SG-delta edge total,
// latency-tier span histograms, per-scheme staleness histograms, and a
// cycle-length histogram. It must stay clock-free: it sits in
// bpush-lint's deterministic scope (every obs.Recorder implementation
// does), and span events already carry their nanosecond measurements from
// the emitting tier's sampler. It is safe for concurrent use: the
// producer and any in-process client recording into it share one.
type regRecorder struct {
	reg *obs.Registry
	mu  sync.Mutex
	// handles caches the registry handles per foldKey, so the per-event
	// cost is a map hit, not a name build and a registry lookup. Metrics
	// still come into being on their key's first event.
	handles map[foldKey]foldHandles
}

// foldKey names the metrics one event updates: its type and, for the
// types whose metric names carry it, the event's Reason or Method.
type foldKey struct {
	t    obs.Type
	name string
}

// foldHandles are the registry handles of one foldKey.
type foldHandles struct {
	events *obs.Counter // events.<type>
	// count is faults.<kind>, producer.<phase>.units or sg.delta_edges.
	count *obs.Counter
	// hists is cycle.slots, span.<tier>_ns, or the three
	// staleness.<method>.{age,lag,span}_cycles histograms.
	hists [3]*obs.Histogram
}

// lookup returns e's handles, creating them on their key's first event.
func (r *regRecorder) lookup(e obs.Event) foldHandles {
	k := foldKey{t: e.Type}
	switch e.Type {
	case obs.TypeFault, obs.TypeProducerPhase, obs.TypeSpan:
		k.name = e.Reason
	case obs.TypeStaleness:
		k.name = e.Method
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.handles[k]
	if !ok {
		if r.handles == nil {
			r.handles = make(map[foldKey]foldHandles)
		}
		h = r.register(k)
		r.handles[k] = h
	}
	return h
}

// register looks up (creating) the registry metrics of k.
func (r *regRecorder) register(k foldKey) foldHandles {
	h := foldHandles{events: r.reg.Counter("events." + string(k.t))}
	switch k.t {
	case obs.TypeCycleEnd:
		h.hists[0] = r.reg.Histogram("cycle.slots", cycleSlotBounds)
	case obs.TypeFault:
		h.count = r.reg.Counter("faults." + k.name)
	case obs.TypeProducerPhase:
		// Per-phase throughput of the commit pipeline: transactions
		// planned, items placed, conflict edges executed.
		h.count = r.reg.Counter("producer." + k.name + ".units")
	case obs.TypeSGDelta:
		h.count = r.reg.Counter("sg.delta_edges")
	case obs.TypeSpan:
		h.hists[0] = r.reg.Histogram(spanMetric(k.name), spanNsBounds)
	case obs.TypeStaleness:
		p := "staleness." + k.name + "."
		h.hists[0] = r.reg.Histogram(p+"age_cycles", stalenessCycleBounds)
		h.hists[1] = r.reg.Histogram(p+"lag_cycles", stalenessCycleBounds)
		h.hists[2] = r.reg.Histogram(p+"span_cycles", stalenessCycleBounds)
	}
	return h
}

// cycleSlotBounds buckets becast lengths (data + overflow slots).
var cycleSlotBounds = []float64{64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384}

// spanNsBounds buckets wall-clock tier latencies: roughly log-spaced
// from 1µs to 5s, wide enough for an in-process encode and a stalled
// socket drain to land in interior buckets.
var spanNsBounds = []float64{
	1e3, 2.5e3, 5e3, 1e4, 2.5e4, 5e4, 1e5, 2.5e5, 5e5,
	1e6, 2.5e6, 5e6, 1e7, 2.5e7, 5e7, 1e8, 2.5e8, 5e8, 1e9, 5e9,
}

// queueDepthBounds buckets sampled per-subscriber send-queue depths; the
// 0 bound separates fully drained subscribers from lagging ones.
var queueDepthBounds = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256}

// stalenessCycleBounds buckets per-read currency distances in cycles;
// the 0 bound isolates perfectly current reads.
var stalenessCycleBounds = []float64{0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}

// spanMetric maps a span tier name to its histogram metric name
// ("on-air" -> "span.on_air_ns").
func spanMetric(tier string) string {
	return "span." + strings.ReplaceAll(tier, "-", "_") + "_ns"
}

func (r *regRecorder) Record(e obs.Event) {
	h := r.lookup(e)
	h.events.Inc()
	switch e.Type {
	case obs.TypeCycleEnd:
		h.hists[0].Observe(float64(e.Slots))
	case obs.TypeFault:
		h.count.Inc()
	case obs.TypeProducerPhase, obs.TypeSGDelta:
		h.count.Add(e.N)
	case obs.TypeSpan:
		h.hists[0].Observe(float64(e.N))
	case obs.TypeStaleness:
		h.hists[0].Observe(float64(e.Cycles))
		h.hists[1].Observe(float64(e.N))
		h.hists[2].Observe(float64(e.Span))
	}
}

// NewStation builds and starts a station. With a non-zero interval a
// background ticker drives the cycles; stop it with Close.
func NewStation(cfg StationConfig) (*Station, error) {
	if cfg.DBSize <= 0 || cfg.Versions < 1 {
		return nil, fmt.Errorf("netcast: invalid station DBSize/Versions %d/%d", cfg.DBSize, cfg.Versions)
	}
	if cfg.Workload.DBSize != cfg.DBSize {
		return nil, fmt.Errorf("netcast: workload DBSize %d != station DBSize %d", cfg.Workload.DBSize, cfg.DBSize)
	}
	if cfg.Pprof && cfg.HTTPAddr == "" {
		return nil, fmt.Errorf("netcast: Pprof requires HTTPAddr")
	}
	reg := obs.NewRegistry()
	ring := obs.NewRing(traceRing)
	fold := &regRecorder{reg: reg}
	rec := obs.Tee(ring, fold)
	var clock obs.Sampler
	if cfg.Sample {
		// The one place the station touches the clock; every measured
		// tier below receives this sampler or its int64 readings.
		clock = obs.WallSampler()
	}
	var t0 int64
	if clock != nil {
		t0 = clock()
	}
	var metrics *obs.Registry
	if cfg.LogDir != "" {
		metrics = reg
	}
	src, err := cyclesource.New(cyclesource.Config{
		DBSize:        cfg.DBSize,
		Versions:      cfg.Versions,
		Workload:      cfg.Workload,
		Seed:          cfg.Seed,
		Workers:       cfg.Workers,
		Recorder:      rec,
		LogDir:        cfg.LogDir,
		MemCycles:     cfg.MemCycles,
		SnapshotEvery: cfg.SnapshotEvery,
		Metrics:       metrics,
	})
	if err != nil {
		return nil, err
	}
	if clock != nil && cfg.LogDir != "" {
		// One restore span per (re)start: how long reopening the log and
		// replaying to the resume point took.
		ns := clock() - t0
		if ns < 0 {
			ns = 0
		}
		rec.Record(obs.Event{Type: obs.TypeSpan, T: obs.At(model.Cycle(src.Produced()), 0), Reason: obs.SpanRestore, N: ns})
	}
	var mangler *fault.Mangler
	if !cfg.Fault.IsZero() {
		seed := cfg.FaultSeed
		if seed == 0 {
			seed = cfg.Seed + 1
		}
		mangler, err = fault.NewMangler(cfg.Fault, seed)
		if err != nil {
			return nil, err
		}
		mangler.Observe(rec)
	}
	bc, err := ListenConfig(cfg.Addr, cfg.Cast)
	if err != nil {
		return nil, err
	}
	if cfg.Sample {
		drain := make([]*obs.Histogram, bc.cfg.Shards)
		for i := range drain {
			drain[i] = reg.Histogram(fmt.Sprintf("net.shard.%d.drain_ns", i), spanNsBounds)
		}
		stride := cfg.SampleStride
		if stride <= 0 {
			stride = DefaultSampleStride
		}
		if err := bc.SampleLag(clock, reg.Histogram("net.queue_depth", queueDepthBounds), drain, stride); err != nil {
			_ = bc.Close()
			return nil, err
		}
	}
	s := &Station{
		cfg:     cfg,
		src:     src,
		bc:      bc,
		reg:     reg,
		ring:    ring,
		rec:     rec,
		fold:    fold,
		clock:   clock,
		next:    int(src.Produced()),
		mangler: mangler,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	if cfg.HTTPAddr != "" {
		s.http, err = serveMetrics(cfg.HTTPAddr, s)
		if err != nil {
			_ = bc.Close()
			return nil, err
		}
	}
	go s.run()
	return s, nil
}

// Addr returns the station's listening address.
func (s *Station) Addr() string { return s.bc.Addr() }

// Subscribers returns the current subscriber count.
func (s *Station) Subscribers() int { return s.bc.Subscribers() }

// Cast returns the station's broadcaster — the fan-out tier the
// subscribers are attached to, e.g. to subscribe in-process tuners
// directly with SubscribeLocal.
func (s *Station) Cast() *Broadcaster { return s.bc }

// Source returns the station's cycle producer, e.g. to attach in-process
// consumers to the same stream the network subscribers hear. In-process
// consumers share the producer's becasts, their SG deltas already
// checked; network subscribers decode frames into fresh becasts (nothing
// derived crosses the wire) and check each delta on first use.
func (s *Station) Source() *cyclesource.Source { return s.src }

// Registry returns the station's live metric registry — the object the
// /metricsz endpoint renders.
func (s *Station) Registry() *obs.Registry { return s.reg }

// MetricsAddr returns the HTTP metrics listening address, or "" when
// StationConfig.HTTPAddr was empty.
func (s *Station) MetricsAddr() string {
	if s.http == nil {
		return ""
	}
	return s.http.addr()
}

// refreshGauges copies the broadcaster's live traffic counters into the
// registry; called when a snapshot is about to be rendered, so the gauges
// are current without a per-frame update cost.
func (s *Station) refreshGauges() {
	t := s.bc.Traffic()
	s.reg.Gauge("net.frames_sent").Set(float64(t.FramesSent))
	s.reg.Gauge("net.bytes_sent").Set(float64(t.BytesSent))
	s.reg.Gauge("net.drops").Set(float64(t.Drops))
	s.reg.Gauge("net.evictions").Set(float64(t.Evictions))
	s.reg.Gauge("net.bytes_received").Set(float64(t.BytesReceived))
	s.reg.Gauge("net.subscribers").Set(float64(s.bc.Subscribers()))
	for _, sh := range s.bc.Shards() {
		prefix := fmt.Sprintf("net.shard.%d.", sh.Shard)
		s.reg.Gauge(prefix + "subscribers").Set(float64(sh.Subscribers))
		s.reg.Gauge(prefix + "queue_depth").Set(float64(sh.QueueDepth))
		s.reg.Gauge(prefix + "frames_sent").Set(float64(sh.FramesSent))
		s.reg.Gauge(prefix + "evictions").Set(float64(sh.Evictions))
		s.reg.Gauge(prefix + "drops").Set(float64(sh.Drops))
	}
}

func (s *Station) run() {
	defer close(s.done)
	if s.cfg.Interval == 0 {
		<-s.stop
		return
	}
	ticker := time.NewTicker(s.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			if err := s.Tick(); err != nil {
				return
			}
		case <-s.stop:
			return
		}
	}
}

// Tick produces the next cycle (the first tick broadcasts the initial
// database load) and pushes its frame to every subscriber. The frame is
// the one the source encoded at production — on a durable station, the
// very bytes it appended to the log — so the station itself never
// encodes. With a fault plan configured the frame passes through the
// mangler first; dropped cycles put nothing on air, so subscribers see
// an undeclared gap. With StationConfig.Sample the tick is measured into
// span.* histograms: commit covers production (commit pipeline, becast
// assembly, the encode and the durable append), on-air the mangling and
// the sharded fan-out enqueue; the drain tier is the broadcaster's
// SampleLag.
func (s *Station) Tick() error {
	var t0 int64
	if s.clock != nil {
		t0 = s.clock()
	}
	s.mu.Lock()
	//lint:allow lockorder mu is the tick serializer, not a fan-out lock: waiting for cycle production is the point of Tick, and no subscriber's progress depends on mu
	b, frame, err := s.src.GetFrame(s.next)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	s.next++
	var t1 int64
	if s.clock != nil {
		t1 = s.clock()
	}
	var frames [][]byte
	if s.mangler != nil {
		frames = s.mangler.Mangle(b.Cycle, frame)
	}
	s.mu.Unlock()
	if s.mangler == nil {
		// Nobody writes the source's frame again, so the fan-out can
		// share it without a copy.
		err = s.bc.Broadcast(sealFrame(frame))
	} else {
		for _, f := range frames {
			if err = s.bc.Broadcast(NewFrame(f)); err != nil {
				break
			}
		}
	}
	if s.clock != nil {
		t2 := s.clock()
		s.recordSpan(b.Cycle, obs.SpanCommit, t1-t0)
		s.recordSpan(b.Cycle, obs.SpanOnAir, t2-t1)
	}
	return err
}

// recordSpan emits one tier measurement into the station's sink (ring +
// registry). Negative durations (a clock step) clamp to zero.
func (s *Station) recordSpan(c model.Cycle, tier string, ns int64) {
	if ns < 0 {
		ns = 0
	}
	s.rec.Record(obs.Event{Type: obs.TypeSpan, T: obs.At(c, 0), Reason: tier, N: ns})
}

// Close stops the ticker, the metrics endpoint, the broadcaster, and the
// durable cycle log (syncing its tail), in that order: nothing can
// produce a cycle once the ticker and fan-out are down, so the log
// closes quiescent.
func (s *Station) Close() error {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	<-s.done
	if s.http != nil {
		_ = s.http.close()
	}
	err := s.bc.Close()
	if cerr := s.src.Close(); err == nil {
		err = cerr
	}
	return err
}
