package main

import (
	"bpush/internal/core"
)

// The catalogue: workloads, schemes, profiles and metric names. Every
// name a run may emit is declared here, BENCHMARK.json repeats the same
// names, and TestCatalogueMatchesBenchmarkJSON keeps the two from
// drifting.

// scheme is one of the five client methods under a short stable name
// (the <s> of the core.<s>.* metrics).
type scheme struct {
	name string
	opts core.Options
}

// schemes lists the methods in audience rotation order; client i of a
// live workload runs clients[i], and sim-fleet runs one fleet per entry.
var schemes = []scheme{
	{"invonly", core.Options{Kind: core.KindInvOnly, CacheSize: 100}},
	{"vcache", core.Options{Kind: core.KindVCache, CacheSize: 100}},
	{"mv", core.Options{Kind: core.KindMVBroadcast}},
	{"mvcache", core.Options{Kind: core.KindMVCache, CacheSize: 100}},
	{"sgt", core.Options{Kind: core.KindSGT, CacheSize: 100}},
}

func schemeByName(name string) scheme {
	for _, s := range schemes {
		if s.name == name {
			return s
		}
	}
	panic("bench: unknown scheme " + name)
}

// rotate returns n scheme names cycling through schemes in order.
func rotate(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = schemes[i%len(schemes)].name
	}
	return out
}

// Parameters shared by every workload.
const (
	versions    = 4    // S: versions the server keeps on air
	theta       = 0.95 // Zipf skew, server and clients
	opsPerQuery = 10
	thinkTime   = 2
	readsPerUpd = 4
	memCycles   = 8 // the station's in-memory window; older cycles are read from its log
)

// workloadSpec is one set of inputs. The three live workloads drive a durable
// netcast.Station in lockstep; sim-fleet (fleet == true) runs sim.RunFleet.
type workloadSpec struct {
	name string
	why  string

	// Server side (live workloads; sim-fleet uses sim.DefaultConfig).
	db, updateRange, offset, txs, updates int
	// clients names the scheme of every decoding audience member.
	clients []string
	// raws is the number of subscribers that only read bytes; the first
	// one also hashes the stream for the verification pass.
	raws int
	// cycles is the measured phase of the full profile.
	cycles int

	fleet bool
}

var workloads = []workloadSpec{
	{
		name: "steady-receive",
		why:  "paper defaults with 16 decoding scheme clients: receive-bound, 16 x (decode + NewCycle + reads) is most of a cycle",
		db:   1000, updateRange: 500, offset: 100, txs: 10, updates: 50,
		clients: rotate(16), raws: 1, cycles: 5000,
	},
	{
		name: "write-heavy",
		why:  "paper maximum N=50 U=500 with one sgt client: producer-bound, commit + assembly + a 100 KB frame dominate; receive work is small",
		db:   1000, updateRange: 500, offset: 100, txs: 50, updates: 500,
		clients: []string{"sgt"}, raws: 1, cycles: 5000,
	},
	{
		name: "fanout-wide",
		why:  "tiny D=100 frame to 512 byte-draining subscribers: fan-out-bound, enqueue + shard drain + memconn is most of a cycle",
		db:   100, updateRange: 50, offset: 10, txs: 5, updates: 10,
		clients: []string{"invonly", "vcache"}, raws: 512, cycles: 16000,
	},
	{
		name:  "sim-fleet",
		why:   "sim.RunFleet, 64 virtual-time clients per scheme over a shared CycleIndex: scheme, cache and sg work with no wire, netcast or durlog",
		fleet: true,
	},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// profile sizes a run. Counts that depend on the workload scale from the
// workload's own full-profile size.
type profile struct {
	name string
	// warmup cycles precede the measured phase of a live workload.
	warmup int
	// cycleDiv divides each live workload's full cycle count.
	cycleDiv int
	// verifyCycles is the outcome-digest window of the verification pass.
	verifyCycles int
	// setups is how many times a run sets up (median -> setup_s);
	// restarts how many times a station is reopened (median -> restart_ms)
	// over a log of restartCycles cycles. 406 = 256 + 150: one snapshot in
	// the log and 150 cycles to replay after it.
	setups, restarts, restartCycles int
	// sim-fleet: clients per fleet, measured and warm-up queries per
	// client, rounds (one fleet per scheme each), and the cycle count of
	// the durable side leg that follows every round.
	fleetClients, fleetQueries, fleetWarmup, fleetRounds, sideCycles int
	// spinIters sizes the host canary.
	spinIters int
}

var profiles = map[string]profile{
	"full": {
		name: "full", warmup: 20, cycleDiv: 1, verifyCycles: 500, setups: 5, restarts: 9, restartCycles: 406,
		fleetClients: 64, fleetQueries: 200, fleetWarmup: 50, fleetRounds: 12, sideCycles: 150,
		spinIters: 16 << 20,
	},
	"smoke": {
		name: "smoke", warmup: 4, cycleDiv: 200, verifyCycles: 20, setups: 2, restarts: 2, restartCycles: 12,
		fleetClients: 4, fleetQueries: 10, fleetWarmup: 2, fleetRounds: 2, sideCycles: 8,
		spinIters: 1 << 18,
	},
}

// metric declares one emitted name.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before it counts as a regression; per-layer
	// metrics have none.
	bound float64
}

// endToEnd lists what a user of the system sees. Every workload emits
// every name; README.md says how sim-fleet reads the station-side ones.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"cycles_per_s", "1/s", "higher", 0.25},
	{"heard_ms_p50", "ms", "lower", 0.25},
	{"heard_ms_p95", "ms", "lower", 0.25},
	{"onair_ms_p50", "ms", "lower", 0.25},
	{"queries_per_s", "1/s", "higher", 0.25},
	{"abort_rate", "ratio", "lower", 0.10},
	{"cpu_ms_per_cycle", "ms", "lower", 0.25},
	{"allocs_per_cycle", "objects", "lower", 0.01},
	{"heap_mb_end", "MB", "lower", 0.25},
	{"frame_bytes", "B", "lower", 0.01},
	{"restart_ms", "ms", "lower", 0.25},
	{"catchup_cycles_per_s", "1/s", "higher", 0.25},
}

// perLayer lists the traced run's names, layer by layer (a layer is one
// of this repository's packages). A workload that does not exercise a
// layer reports 0 for it.
var perLayer = buildPerLayer()

func buildPerLayer() []metric {
	us := func(names ...string) []metric {
		var out []metric
		for _, n := range names {
			out = append(out, metric{name: n, unit: "us", better: "lower"})
		}
		return out
	}
	count := func(unit string, names ...string) []metric {
		var out []metric
		for _, n := range names {
			out = append(out, metric{name: n, unit: unit, better: "lower"})
		}
		return out
	}
	var m []metric
	m = append(m, us("workload.draw_us")...)
	m = append(m, count("count", "workload.ops_per_cycle")...)
	m = append(m, us("server.commit_us")...)
	m = append(m, count("objects", "server.commit_allocs")...)
	m = append(m, count("count", "server.txs_per_cycle")...)
	m = append(m, us("broadcast.assemble_us", "broadcast.prime_us")...)
	m = append(m, count("count", "broadcast.slots", "broadcast.report_entries", "broadcast.overflow_entries", "sg.delta_edges")...)
	m = append(m, us("wire.encode_us")...)
	m = append(m, count("objects", "wire.encode_allocs")...)
	m = append(m, count("B", "wire.frame_bytes")...)
	m = append(m, us("wire.decode_us")...)
	m = append(m, count("objects", "wire.decode_allocs")...)
	m = append(m, count("KB", "wire.decode_alloc_kb")...)
	m = append(m, us("durlog.append_us")...)
	m = append(m, count("objects", "durlog.append_allocs")...)
	m = append(m, us("durlog.snapshot_us")...)
	m = append(m, count("ratio", "durlog.disk_bytes_per_frame_byte")...)
	m = append(m, count("count", "durlog.segments")...)
	m = append(m, us("durlog.open_us")...)
	m = append(m, count("B", "durlog.recovered_bytes")...)
	m = append(m, us("durlog.read_us")...)
	m = append(m, count("objects", "durlog.read_allocs")...)
	m = append(m, us("cyclesource.get_us", "cyclesource.spill_get_us", "cyclesource.resume_us")...)
	m = append(m, us("netcast.subscribe_us", "netcast.tick_us", "netcast.tick_us_p99", "netcast.tick_remainder_us", "netcast.drain_wait_us")...)
	m = append(m, count("count", "netcast.queue_depth_max")...)
	m = append(m, us("netcast.next_us")...)
	m = append(m, count("ms", "netcast.heard_ms_p99")...)
	m = append(m, us("netcast.cpu_us_per_sub_frame")...)
	m = append(m, count("count", "netcast.evictions", "netcast.drops", "netcast.corrupt_frames")...)
	for _, s := range schemes {
		p := "core." + s.name + "."
		m = append(m, us(p+"newcycle_us")...)
		m = append(m, count("objects", p+"newcycle_allocs")...)
		m = append(m, us(p+"serve_us", p+"commit_us")...)
		m = append(m, count("ratio", p+"abort_rate")...)
	}
	m = append(m, us("client.new_us", "client.query_us")...)
	m = append(m, count("cycles", "client.latency_cycles", "client.span_cycles")...)
	m = append(m, metric{name: "cache.hit_share", unit: "ratio", better: "higher"})
	for _, s := range schemes {
		m = append(m, metric{name: "sim." + s.name + ".fleet_ms", unit: "ms", better: "lower"})
	}
	m = append(m, count("count", "sim.server_cycles")...)
	m = append(m, metric{name: "pool.fleet_speedup", unit: "ratio", better: "higher"})
	m = append(m, count("count", "runtime.gc_cycles")...)
	m = append(m, count("ms", "runtime.gc_pause_ms")...)
	m = append(m, count("MB", "runtime.heap_peak_mb")...)
	m = append(m, count("KB", "runtime.alloc_kb_per_cycle")...)
	m = append(m, count("ms", "host.spin_ms_before", "host.spin_ms_after")...)
	m = append(m, count("count", "host.noisy_runs")...)
	m = append(m, count("%", "trace.overhead_pct", "trace.remainder_pct")...)
	return m
}
