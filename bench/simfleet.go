package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"runtime"

	"bpush/internal/sim"
	"bpush/internal/wire"
)

// sim-fleet uses the client layers differently from the live workloads:
// virtual time, one shared CycleIndex per cycle, no wire, netcast or
// durlog. One round is one sim.RunFleet per scheme over the stream of
// seed+round.
//
// Every workload must emit every end-to-end metric, so the station-side
// ones are read here as the sim tier's equivalents: heard_ms_* is the
// wall time of one fleet (first cycle produced to last client done), and
// onair/frame/restart/catchup come from a side leg after every round that
// produces the head of the round's stream once more through a durable
// source. The side legs are spread over the run so that a slow spell of
// the host cannot decide them alone; no other number includes their time.

func (o runOptions) fleetConfig(s scheme, seed int64) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.ServerVersions = versions
	cfg.Queries = o.prof.fleetQueries
	cfg.Warmup = o.prof.fleetWarmup
	cfg.Parallel = 0
	cfg.Scheme = s.opts
	cfg.Seed = seed
	return cfg
}

// fleetCount is what one fleet's queries amounted to.
type fleetCount struct{ queries, aborted, latencyCycles, cycles int64 }

func countFleet(fm *sim.FleetMetrics) fleetCount {
	c := fleetCount{cycles: int64(fm.ServerCycles)}
	for _, m := range fm.PerClient {
		c.queries += int64(m.Queries)
		c.aborted += int64(m.Aborted)
		c.latencyCycles += int64(math.Round(m.MeanLatency * float64(m.Committed)))
	}
	return c
}

// fleetRound runs one fleet per scheme and returns their walls and counts.
func fleetRound(o runOptions, seed int64, parallel int, check bool) (wallNs []int64, counts []fleetCount, fms []*sim.FleetMetrics, err error) {
	for _, s := range schemes {
		cfg := o.fleetConfig(s, seed)
		cfg.Parallel = parallel
		cfg.Check = check
		t0 := o.now()
		fm, err := sim.RunFleet(cfg, o.prof.fleetClients)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("fleet %s seed %d: %w", s.name, seed, err)
		}
		wallNs = append(wallNs, o.now()-t0)
		counts = append(counts, countFleet(fm))
		fms = append(fms, fm)
	}
	return wallNs, counts, fms, nil
}

// fleetPhase is the measured phase of sim-fleet.
type fleetPhase struct {
	wallNs        [][]int64 // [scheme] -> one wall per round
	total         fleetCount
	round0        []fleetCount
	round0Fleets  []*sim.FleetMetrics
	before, after counters
	cpuNs         int64 // CPU and allocations of the fleets alone
	allocs        uint64
	pauseNs       uint64
	heapEndMB     float64
	rounds        int
}

func (p *fleetPhase) allWalls() []int64 {
	var out []int64
	for _, w := range p.wallNs {
		out = append(out, w...)
	}
	return out
}

func runFleetWorkload(w workloadSpec, o runOptions) (*result, error) {
	res := newResult(w.name, o)
	mt := newMeter()
	res.spinBefore = spinMs(o.now, o.prof.spinIters)

	// Set-up: the discarded round. It runs the seed of round 0, so its
	// counts must equal round 0's. A round takes seconds, so at most three
	// of them, whatever the profile's count for the live workloads.
	setups := o.prof.setups
	if setups > 3 {
		setups = 3
	}
	var setupNs []int64
	var warm []fleetCount
	for i := 0; i < setups; i++ {
		t0 := o.now()
		_, counts, _, err := fleetRound(o, o.seed, 0, false)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupNs = append(setupNs, o.now()-t0)
		if warm != nil && !sameCounts(warm, counts) {
			res.fail(1, "two set-up rounds of one seed disagree")
		}
		warm = counts
	}

	ph := &fleetPhase{wallNs: make([][]int64, len(schemes))}
	var deadline int64
	rounds := o.prof.fleetRounds
	if o.seconds > 0 {
		rounds = 0
		deadline = o.now() + int64(o.seconds*1e9)
	}
	side := &sideLeg{}
	runtime.GC()
	pause0 := gcPauseNs()
	ph.before = mt.read()
	mark := ph.before
	for rounds == 0 || ph.rounds < rounds {
		if deadline != 0 && ph.rounds > 0 && o.now() >= deadline {
			break
		}
		wall, counts, fms, err := fleetRound(o, o.seed+int64(ph.rounds), 0, false)
		if err != nil {
			return nil, err
		}
		for i := range schemes {
			ph.wallNs[i] = append(ph.wallNs[i], wall[i])
			ph.total.queries += counts[i].queries
			ph.total.aborted += counts[i].aborted
			ph.total.latencyCycles += counts[i].latencyCycles
			ph.total.cycles += counts[i].cycles
		}
		if ph.rounds == 0 {
			ph.round0, ph.round0Fleets = counts, fms
		}
		// Counters stop for the side leg: it is not part of the fleets' cost.
		now := mt.read()
		ph.cpuNs += now.cpuNs - mark.cpuNs
		ph.allocs += now.allocObjects - mark.allocObjects
		if err := side.run(o, o.seed+int64(ph.rounds)); err != nil {
			return nil, fmt.Errorf("side leg: %w", err)
		}
		mark = mt.read()
		ph.rounds++
	}
	ph.after = mt.read()
	ph.pauseNs = gcPauseNs() - pause0
	ph.heapEndMB = liveHeapMB()

	walls := ph.allWalls()
	wallS := float64(sumNs(walls)) / 1e9
	cyc := float64(ph.total.cycles)
	if !o.trace {
		res.set("setup_s", quantileNs(setupNs, 0.5, 1e9), len(setupNs))
		res.set("cycles_per_s", cyc/wallS, int(cyc))
		res.set("heard_ms_p50", quantileNs(walls, 0.5, 1e6), len(walls))
		res.set("heard_ms_p95", quantileNs(walls, 0.95, 1e6), len(walls))
		res.set("onair_ms_p50", quantileNs(side.getNs, 0.5, 1e6), len(side.getNs))
		res.set("queries_per_s", float64(ph.total.queries)/wallS, int(ph.total.queries))
		res.set("abort_rate", ratio(float64(ph.total.aborted), float64(ph.total.queries)), int(ph.total.queries))
		res.set("cpu_ms_per_cycle", float64(ph.cpuNs)/1e6/cyc, int(cyc))
		res.set("allocs_per_cycle", float64(ph.allocs)/cyc, int(cyc))
		res.set("heap_mb_end", ph.heapEndMB, 1)
		res.set("frame_bytes", float64(side.frameBytes)/float64(len(side.getNs)), len(side.getNs))
		res.set("restart_ms", quantileNs(side.restartNs, 0.5, 1e6), len(side.restartNs))
		res.set("catchup_cycles_per_s", float64(len(side.getNs))/(float64(side.catchupNs)/1e9), len(side.getNs))
	}
	res.exact = exact{cycles: ph.total.cycles, queries: ph.total.queries, aborted: ph.total.aborted,
		frameBytes: side.frameBytes, latencyCycles: ph.total.latencyCycles}

	// Verification: equal seeds give equal counts, and a quarter of each
	// fleet run once more with the oracle on must have its commits checked
	// and agree, client by client, with round 0.
	res.attempted = ph.total.queries
	if !sameCounts(warm, ph.round0) {
		res.fail(1, "set-up round and round 0 of one seed disagree")
	}
	res.fail(side.mismatches, "side-leg cycles that differ after restart")
	quarter := o
	quarter.prof.fleetClients = (o.prof.fleetClients + 3) / 4
	_, _, fms, err := fleetRound(quarter, o.seed, 0, true)
	if err != nil {
		res.fail(1, err.Error())
	}
	for i, fm := range fms {
		var ok int
		for c, m := range fm.PerClient {
			ok += m.OracleChecked
			res.attempted += int64(m.Queries)
			if want := ph.round0Fleets[i].PerClient[c]; m.Queries != want.Queries || m.Aborted != want.Aborted {
				res.fail(1, fmt.Sprintf("%s client %d: the oracle-checked fleet and round 0 of one seed disagree", schemes[i].name, c))
			}
		}
		if ok == 0 {
			res.fail(1, "the oracle checked no commit of scheme "+schemes[i].name)
		}
	}

	if o.trace {
		if err := fleetLayers(res, ph, o, mt); err != nil {
			return nil, err
		}
	}
	res.spinAfter = spinMs(o.now, o.prof.spinIters)
	return res, nil
}

func sameCounts(a, b []fleetCount) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sideLeg is the head of a round's stream made durable: the only part of
// sim-fleet that touches wire and durlog. It accumulates over the rounds.
type sideLeg struct {
	getNs      []int64 // producing one fresh cycle, append included
	frameBytes int64
	restartNs  []int64
	catchupNs  int64
	mismatches int64
}

// run produces prof.sideCycles cycles of the stream of seed through a
// durable source, reopens it once, and lets a late joiner replay it; the
// replay must be byte-equal to what was produced.
func (leg *sideLeg) run(o runOptions, seed int64) error {
	dir, err := newRunDir(o.tmpRoot)
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	cfg := o.fleetConfig(schemes[0], seed)
	cfg.LogDir = dir + "/log"
	cfg.MemCycles = memCycles
	src, err := cfg.NewSource()
	if err != nil {
		return err
	}
	n := o.prof.sideCycles
	onAir := sha256.New()
	for i := 0; i < n; i++ {
		t0 := o.now()
		b, err := src.Get(i)
		leg.getNs = append(leg.getNs, o.now()-t0)
		if err != nil {
			_ = src.Close()
			return err
		}
		frame, err := wire.Encode(b)
		if err != nil {
			_ = src.Close()
			return err
		}
		leg.frameBytes += int64(len(frame))
		onAir.Write(frame)
	}
	if err := src.Close(); err != nil {
		return err
	}
	t0 := o.now()
	src, err = cfg.NewSource()
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	leg.restartNs = append(leg.restartNs, o.now()-t0)
	defer func() { _ = src.Close() }()
	if int(src.Produced()) != n {
		return fmt.Errorf("reopened source resumed at cycle %d, want %d", src.Produced(), n)
	}
	replayed := sha256.New()
	feed := src.NewFeedAt(0)
	for i := 0; i < n; i++ {
		t0 := o.now()
		b, err := feed.Next()
		leg.catchupNs += o.now() - t0
		if err != nil {
			return err
		}
		frame, err := wire.Encode(b)
		if err != nil {
			return err
		}
		replayed.Write(frame)
	}
	if !bytes.Equal(onAir.Sum(nil), replayed.Sum(nil)) {
		leg.mismatches++
	}
	return nil
}

// fleetLayers derives the per-layer metrics of a traced sim-fleet run.
// RunFleet is opaque, so the traced part pre-produces the round-0 stream
// (timing each Get) and then drives a quarter of each fleet's clients one
// at a time through the same wrappers the live audience uses; their
// counts must equal the ones RunFleet reported for the same clients.
func fleetLayers(res *result, ph *fleetPhase, o runOptions, mt *meter) error {
	zeroLayers(res)
	fleets := float64(ph.rounds * len(schemes))
	for i, s := range schemes {
		res.set("sim."+s.name+".fleet_ms", quantileNs(ph.wallNs[i], 0.5, 1e6), len(ph.wallNs[i]))
	}
	res.set("sim.server_cycles", float64(ph.total.cycles)/fleets, int(fleets))
	setProcessLayers(res, ph.before, ph.after, ph.pauseNs, ph.after.heapLive, float64(ph.total.cycles))

	serial, _, _, err := fleetRound(o, o.seed, 1, false)
	if err != nil {
		return err
	}
	parallel, _, _, err := fleetRound(o, o.seed, runtime.GOMAXPROCS(0), false)
	if err != nil {
		return err
	}
	res.set("pool.fleet_speedup", ratio(float64(sumNs(serial)), float64(sumNs(parallel))), len(schemes))

	var cycles int64
	for _, c := range ph.round0 {
		if c.cycles > cycles {
			cycles = c.cycles
		}
	}
	src, err := o.fleetConfig(schemes[0], o.seed).NewSource()
	if err != nil {
		return err
	}
	defer func() { _ = src.Close() }()
	conductor := newSpanBuf(1, "conductor")
	bufs := []*spanBuf{conductor}
	for i := 0; i < int(cycles); i++ {
		t0 := o.now()
		if _, err := src.Get(i); err != nil {
			return err
		}
		conductor.leaf("cyclesource.get", int64(i+1), t0, o.now())
	}
	setUs(res, bufs, "cyclesource.get_us", "cyclesource.get", 0)

	// The same clients twice: plain first (the reference the tracing
	// overhead is measured against), then through the wrappers.
	clients := (o.prof.fleetClients + 3) / 4
	var members []*member
	allocs := map[string][]float64{}
	var plainNs, tracedNs int64
	for _, traced := range []bool{false, true} {
		t0 := o.now()
		for si, s := range schemes {
			fm := ph.round0Fleets[si]
			for i := 0; i < clients; i++ {
				m := &member{
					sch: s, seed: o.seed + 1000*int64(i+1), db: sim.DefaultConfig().ReadRange,
					feed:       &stepFeed{inner: src.NewFeed()},
					maxQueries: o.prof.fleetWarmup + o.prof.fleetQueries, skipQueries: o.prof.fleetWarmup,
				}
				if traced {
					m.meter = mt
					m.traceInto(newSpanBuf(len(bufs)+1, fmt.Sprintf("client-%d-%s", i, s.name)), o.now, "cyclesource.next")
					bufs = append(bufs, m.buf)
				}
				if err := m.run(); err != nil {
					return fmt.Errorf("client %d (%s): %w", i, s.name, err)
				}
				if want := fm.PerClient[i]; m.out.queries != int64(want.Queries) || m.out.aborted != int64(want.Aborted) {
					res.fail(1, fmt.Sprintf("client %d (%s) driven by the benchmark: %d queries %d aborted, RunFleet reported %d and %d",
						i, s.name, m.out.queries, m.out.aborted, want.Queries, want.Aborted))
				}
				if traced {
					allocs[s.name] = append(allocs[s.name], m.ts.newCycleAllocs...)
					members = append(members, m)
				}
			}
		}
		if traced {
			tracedNs = o.now() - t0
		} else {
			plainNs = o.now() - t0
		}
	}
	setSchemeLayers(res, bufs, members, allocs, 0)

	res.set("trace.overhead_pct", 100*(ratio(float64(tracedNs), float64(plainNs))-1), len(members))
	var explained int64
	self := selfTimes(bufs[1:], 0)
	for _, ns := range self {
		explained += ns
	}
	res.set("trace.remainder_pct", 100*ratio(float64(tracedNs-explained), float64(tracedNs)), len(members))
	fmt.Fprintf(o.log, "\nsim-fleet traced budget: %d clients one at a time took %.1f ms (%.1f ms untraced); spans explain %.1f ms (client runtime %.1f, schemes %.1f, feed %.1f); remainder %.1f%% is query generation, client.New and the benchmark's own accounting\n",
		len(members), float64(tracedNs)/1e6, float64(plainNs)/1e6, float64(explained)/1e6, float64(self["client"])/1e6, float64(self["core"])/1e6, float64(self["cyclesource"])/1e6,
		100*ratio(float64(tracedNs-explained), float64(tracedNs)))
	res.spans = bufs
	return nil
}
