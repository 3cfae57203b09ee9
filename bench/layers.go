package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"

	"bpush/internal/cyclesource"
	"bpush/internal/durlog"
	"bpush/internal/netcast"
)

// zeroLayers gives every per-layer name a value, so a workload that does
// not exercise a layer reports 0 for it.
func zeroLayers(res *result) {
	for _, m := range perLayer {
		res.set(m.name, 0, 0)
	}
}

// setUs records the median duration of the spans named span under the
// metric name.
func setUs(res *result, bufs []*spanBuf, name, span string, after int64) float64 {
	d := durationsUs(bufs, span, after)
	v := median(d)
	res.set(name, v, len(d))
	return v
}

func setMedian(res *result, name string, vals []float64) { res.set(name, median(vals), len(vals)) }

func setMean(res *result, name string, vals []float64) {
	var t float64
	for _, v := range vals {
		t += v
	}
	res.set(name, ratio(t, float64(len(vals))), len(vals))
}

// setSchemeLayers fills core.<s>.*, client.* and cache.* from the traced
// members; allocs maps a scheme name to its NewCycle allocation samples.
func setSchemeLayers(res *result, bufs []*spanBuf, members []*member, allocs map[string][]float64, after int64) {
	per := map[string]*outcomes{}
	var newUs []float64
	var tot outcomes
	for _, m := range members {
		o := per[m.sch.name]
		if o == nil {
			o = &outcomes{}
			per[m.sch.name] = o
		}
		o.merge(&m.out)
		tot.merge(&m.out)
		newUs = append(newUs, m.newUs)
	}
	for _, s := range schemes {
		o := per[s.name]
		if o == nil {
			continue
		}
		p := "core." + s.name + "."
		setUs(res, bufs, p+"newcycle_us", p+"newcycle", after)
		setUs(res, bufs, p+"serve_us", p+"serve", after)
		setUs(res, bufs, p+"commit_us", p+"commit", after)
		setMean(res, p+"newcycle_allocs", allocs[s.name])
		res.set(p+"abort_rate", ratio(float64(o.aborted), float64(o.queries)), int(o.queries))
	}
	setMedian(res, "client.new_us", newUs)
	res.set("client.query_us", quantileNs(tot.queryNs, 0.5, 1e3), len(tot.queryNs))
	res.set("client.latency_cycles", ratio(float64(tot.latencyCycles), float64(tot.committed)), int(tot.committed))
	res.set("client.span_cycles", ratio(float64(tot.spanCycles), float64(tot.committed)), int(tot.committed))
	res.set("cache.hit_share", ratio(float64(tot.cacheReads), float64(tot.reads)), int(tot.reads))
}

// setProcessLayers fills runtime.* from the phase counters.
func setProcessLayers(res *result, before, after counters, pauseNs uint64, heapPeak uint64, cycles float64) {
	res.set("runtime.gc_cycles", float64(after.gcCycles-before.gcCycles), 1)
	res.set("runtime.gc_pause_ms", float64(pauseNs)/1e6, 1)
	res.set("runtime.heap_peak_mb", float64(heapPeak)/(1<<20), 1)
	res.set("runtime.alloc_kb_per_cycle", float64(after.allocBytes-before.allocBytes)/1024/cycles, int(cycles))
}

// critical is the slowest audience member's share of each cycle.
type critical struct {
	recvUs, schemeUs, selfUs []float64
	rawLast                  int // cycles on which the raw group finished after every member
	// workUs is, per cycle, the time all members together spent between
	// having the becast in hand and being done with it.
	workUs []float64
}

// criticalPath finds, cycle by cycle, the member that finished last and
// splits its time after Tick returned into receive (Tick return -> becast
// in hand), scheme work, and the client runtime's own time.
func (r *liveRun) criticalPath(ph *phase) critical {
	first := int64(r.o.prof.warmup) + 1
	n := ph.cycles
	type track struct{ recvEnd, doneAt, scheme []int64 }
	var tracks []track
	for _, m := range r.aud.members {
		t := track{make([]int64, n), make([]int64, n), make([]int64, n)}
		for _, s := range m.buf.spans {
			i := s.cycle - first
			switch {
			case s.name == "netcast.next":
				if i >= 0 && i < int64(n) {
					t.recvEnd[i] = s.end
				}
				if i-1 >= 0 && i-1 < int64(n) {
					t.doneAt[i-1] = s.start // asking for cycle c+1 is being done with c
				}
			case strings.HasPrefix(s.name, "core.") && i >= 0 && i < int64(n):
				t.scheme[i] += s.end - s.start
			}
		}
		tracks = append(tracks, t)
	}
	var c critical
	for i := 0; i < n-1; i++ { // the last cycle has no following Next to mark its end
		last := -1
		var work int64
		for k, t := range tracks {
			work += t.doneAt[i] - t.recvEnd[i]
			if t.doneAt[i] != 0 && (last < 0 || t.doneAt[i] > tracks[last].doneAt[i]) {
				last = k
			}
		}
		if last < 0 {
			continue
		}
		c.workUs = append(c.workUs, float64(work)/1e3)
		t := tracks[last]
		if ph.rawAt[i] > t.doneAt[i] {
			c.rawLast++
		}
		c.recvUs = append(c.recvUs, float64(t.recvEnd[i]-ph.tickEnd[i])/1e3)
		c.schemeUs = append(c.schemeUs, float64(t.scheme[i])/1e3)
		c.selfUs = append(c.selfUs, float64(t.doneAt[i]-t.recvEnd[i]-t.scheme[i])/1e3)
	}
	return c
}

// layers derives every per-layer metric of a traced live run and prints
// the two reconciliations: Tick against the producer layers it calls, and
// commit-to-heard against every layer on the way.
func (r *liveRun) layers(res *result, ph *phase, rs *restartResult, traffic netcast.Stats, corrupt int64) error {
	zeroLayers(res)
	bufs, sh := r.bufs, r.sh
	after := int64(r.o.prof.warmup)
	cyc := float64(ph.cycles)

	draw := setUs(res, bufs, "workload.draw_us", "workload.draw", after)
	setMean(res, "workload.ops_per_cycle", sh.ops)
	commit := setUs(res, bufs, "server.commit_us", "server.commit", after)
	setMean(res, "server.commit_allocs", sh.commitAllocs)
	setMean(res, "server.txs_per_cycle", sh.txs)
	assemble := setUs(res, bufs, "broadcast.assemble_us", "broadcast.assemble", after)
	prime := setUs(res, bufs, "broadcast.prime_us", "broadcast.prime", after)
	setMean(res, "broadcast.slots", sh.slots)
	setMean(res, "broadcast.report_entries", sh.report)
	setMean(res, "broadcast.overflow_entries", sh.overflow)
	setMean(res, "sg.delta_edges", sh.edges)
	encode := setUs(res, bufs, "wire.encode_us", "wire.encode", after)
	setMean(res, "wire.encode_allocs", sh.encodeAllocs)
	setMean(res, "wire.frame_bytes", sh.frameBytes)
	decode := setUs(res, bufs, "wire.decode_us", "wire.decode", after)
	setMean(res, "wire.decode_allocs", sh.decodeAllocs)
	setMean(res, "wire.decode_alloc_kb", sh.decodeKB)
	appendUs := setUs(res, bufs, "durlog.append_us", "durlog.append", after)
	setMean(res, "durlog.append_allocs", sh.appendAllocs)
	setUs(res, bufs, "durlog.snapshot_us", "durlog.snapshot", after)

	if err := r.storageLayers(res, rs); err != nil {
		return err
	}

	setMedian(res, "netcast.subscribe_us", nsToUs(r.aud.subscribeNs))
	tick := quantileNs(ph.onairNs, 0.5, 1e3)
	res.set("netcast.tick_us", tick, ph.cycles)
	res.set("netcast.tick_us_p99", quantileNs(ph.onairNs, 0.99, 1e3), ph.cycles)
	producers := draw + commit + assemble + prime + encode + appendUs
	res.set("netcast.tick_remainder_us", tick-producers, ph.cycles)
	drain := setUs(res, bufs, "netcast.drain_wait_us", "netcast.drain_wait", after)
	res.set("netcast.queue_depth_max", float64(ph.queueDepthMax), ph.cycles)
	setUs(res, bufs, "netcast.next_us", "netcast.next", after)
	res.set("netcast.heard_ms_p99", quantileNs(ph.heardNs, 0.99, 1e6), ph.cycles)
	audienceSize := float64(len(r.w.clients) + r.w.raws)
	res.set("netcast.cpu_us_per_sub_frame", float64(ph.cpuNs)/1e3/(cyc*audienceSize), int(cyc*audienceSize))
	res.set("netcast.evictions", float64(traffic.Evictions), 1)
	res.set("netcast.drops", float64(traffic.Drops), 1)
	res.set("netcast.corrupt_frames", float64(corrupt), 1)

	allocs := map[string][]float64{}
	for _, sc := range sh.clients {
		allocs[sc.m.sch.name] = sc.m.ts.newCycleAllocs
	}
	setSchemeLayers(res, bufs, r.aud.members, allocs, after)
	setProcessLayers(res, ph.before, ph.after, ph.pauseNs, ph.heapPeak, cyc)

	// Reconciliation. In lockstep the audience starts when Tick returns, so
	// commit-to-heard is Tick plus the longer of two things that overlap:
	// delivery (Tick return until every queued frame is written out) and
	// the audience's work spread over the processors. That work is built
	// from independently measured pieces: one uncontended decode per
	// decoding member (the shadow chain's) and every member's scheme and
	// client-runtime time. What is left of the median is wake-ups, garbage
	// collection and contention — unexplained from outside, and reported
	// as such.
	cp := r.criticalPath(ph)
	heard := quantileNs(ph.heardNs, 0.5, 1e3)
	procs := float64(runtime.GOMAXPROCS(0))
	if n := float64(len(r.w.clients)); n < procs {
		procs = n
	}
	work := (float64(len(r.w.clients))*decode + median(cp.workUs)) / procs
	sum := tick + math.Max(drain, work)
	res.set("trace.remainder_pct", 100*ratio(heard-sum, heard), len(cp.workUs))

	w := r.o.log
	fmt.Fprintf(w, "\n%s traced budget, medians per cycle in us (n=%d cycles)\n", r.w.name, ph.cycles)
	fmt.Fprintf(w, "  netcast.tick_us %.1f = workload.draw %.1f + server.commit %.1f + broadcast.assemble %.1f + broadcast.prime %.1f + wire.encode %.1f + durlog.append %.1f + remainder %.1f\n",
		tick, draw, commit, assemble, prime, encode, appendUs, tick-producers)
	fmt.Fprintf(w, "    (durlog.append serializes the cycle itself, so a durable station encodes every cycle twice: once for the log, once for the air)\n")
	fmt.Fprintf(w, "  heard p50 %.1f vs sum %.1f = tick %.1f + max(netcast.drain_wait %.1f, (%d x wire.decode %.1f + scheme and client work of all members %.1f) / %.0f processors = %.1f); remainder %.1f us (%.1f%%)\n",
		heard, sum, tick, drain, len(r.w.clients), decode, median(cp.workUs), procs, work, heard-sum, 100*ratio(heard-sum, heard))
	fmt.Fprintf(w, "  slowest member: becast in hand %.1f us after Tick returned, then scheme %.1f + client runtime %.1f; raw group finished last on %d of %d cycles\n",
		median(cp.recvUs), median(cp.schemeUs), median(cp.selfUs), cp.rawLast, len(cp.recvUs))
	self2 := selfTimes(bufs, after)
	names := make([]string, 0, len(self2))
	for l := range self2 {
		names = append(names, l)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  self time per cycle by layer, all goroutines (us):")
	for _, l := range names {
		fmt.Fprintf(w, " %s=%.1f", l, float64(self2[l])/1e3/cyc)
	}
	fmt.Fprintln(w)
	res.spans = bufs
	return nil
}

func nsToUs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	return out
}

// storageLayers measures wire and durlog the other way round — read
// beside write — on the station's own log after it was closed.
func (r *liveRun) storageLayers(res *result, rs *restartResult) error {
	dir := r.cfg.LogDir
	disk, files, err := dirBytes(dir)
	if err != nil {
		return err
	}
	res.set("durlog.disk_bytes_per_frame_byte", ratio(float64(disk), float64(r.aud.count.read.Load())), int(r.cycle))
	res.set("durlog.segments", float64(files), 1)

	const reps = 3
	var openUs, resumeUs, readUs, readAllocs, spillUs, getUs []float64
	var recovered int64
	for i := 0; i < reps; i++ {
		t0 := r.now()
		l, err := durlog.Open(dir, durlog.Options{})
		if err != nil {
			return err
		}
		openUs = append(openUs, float64(r.now()-t0)/1e3)
		recovered += l.RecoveredBytes()
		if i == 0 {
			step := l.Cycles()/256 + 1
			for c := 0; c < l.Cycles(); c += step {
				a0, _ := r.mt.allocs()
				t0 := r.now()
				_, err := l.ReadCycle(c)
				t1 := r.now()
				a1, _ := r.mt.allocs()
				if err != nil {
					_ = l.Close()
					return err
				}
				readUs = append(readUs, float64(t1-t0)/1e3)
				readAllocs = append(readAllocs, float64(a1-a0))
			}
		}
		if err := l.Close(); err != nil {
			return err
		}
	}
	cfg := cyclesource.Config{
		DBSize: r.cfg.DBSize, Versions: r.cfg.Versions, Workload: r.cfg.Workload, Seed: r.cfg.Seed,
		Workers: 1, LogDir: dir, MemCycles: memCycles,
	}
	for i := 0; i < reps; i++ {
		t0 := r.now()
		src, err := cyclesource.New(cfg)
		if err != nil {
			return err
		}
		resumeUs = append(resumeUs, float64(r.now()-t0)/1e3)
		if i == reps-1 {
			produced := int(src.Produced())
			step := produced/256 + 1
			for c := 0; c < produced; c += step {
				t0 := r.now()
				_, err := src.Get(c)
				spillUs = append(spillUs, float64(r.now()-t0)/1e3)
				if err != nil {
					_ = src.Close()
					return err
				}
			}
			// Fresh cycles last: they extend the log.
			for c := produced; c < produced+32; c++ {
				t0 := r.now()
				_, err := src.Get(c)
				getUs = append(getUs, float64(r.now()-t0)/1e3)
				if err != nil {
					_ = src.Close()
					return err
				}
			}
		}
		if err := src.Close(); err != nil {
			return err
		}
	}
	open := median(openUs)
	res.set("durlog.open_us", open, reps)
	res.set("durlog.recovered_bytes", float64(recovered+rs.recovered), reps)
	setMedian(res, "durlog.read_us", readUs)
	setMean(res, "durlog.read_allocs", readAllocs)
	setMedian(res, "cyclesource.get_us", getUs)
	setMedian(res, "cyclesource.spill_get_us", spillUs)
	res.set("cyclesource.resume_us", median(resumeUs)-open, reps)
	return nil
}
