package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bpush/internal/cyclesource"
	"bpush/internal/model"
	"bpush/internal/netcast"
	"bpush/internal/wire"
	"bpush/internal/workload"
)

// The three live workloads run closed loop with a window of one cycle
// (lockstep): the conductor issues the next Station.Tick only after every
// audience member has finished with the previous cycle. Producer and
// audience therefore never overlap, the layers must add up to the
// end-to-end figure, and — a client being a pure function of (stream,
// query sequence) — every count repeats exactly for a given seed and
// cycle count.

// heapAtCycle is the measured cycle after which the live heap is read. A
// station's heap grows slowly with the cycles it has produced, so reading
// it at the end of a time-bounded phase would couple it to the host's
// speed; a phase shorter than this reads it at its end.
const heapAtCycle = 1000

// rawToken is the done token of the raw-subscriber group; members send
// their index.
const rawToken = -1

// audience is everything attached to one station.
type audience struct {
	members []*member
	tuners  []*netcast.Tuner
	tokens  int // done tokens per cycle: one per member plus one for the raw group

	done    chan int32
	fail    chan error
	closing atomic.Bool
	wg      sync.WaitGroup

	// The raw group: nRaw subscribers that only read. They are done with a
	// cycle when together they have read nRaw x (bytes member 0 has read).
	nRaw      int64
	drained   atomic.Int64
	target    atomic.Int64
	signalled atomic.Int64
	count     *countConn
	sum       hash.Hash // running SHA-256 of the byte stream raw subscriber 0 heard
	keep      bool      // traced: also keep the current cycle's bytes
	captured  []byte

	subscribeNs []int64
}

func (a *audience) failed(err error) {
	select {
	case a.fail <- err:
	default:
	}
}

// rawDone signals the raw group's token exactly once per target.
func (a *audience) rawDone(target int64) {
	if a.signalled.Swap(target) != target {
		a.done <- rawToken
	}
}

// drain is one raw subscriber: it reads and discards.
func (a *audience) drain(conn net.Conn, first bool) {
	defer a.wg.Done()
	buf := make([]byte, 32<<10)
	for {
		n, err := conn.Read(buf)
		if n > 0 {
			if first {
				a.sum.Write(buf[:n])
				if a.keep {
					a.captured = append(a.captured, buf[:n]...)
				}
			}
			if d := a.drained.Add(int64(n)); d == a.target.Load() {
				a.rawDone(d)
			}
		}
		if err != nil {
			if !a.closing.Load() {
				a.failed(fmt.Errorf("raw subscriber: %w", err))
			}
			return
		}
	}
}

// await collects one cycle's done tokens. at, when non-nil, receives the
// arrival time of each token (index tokens-1 holds the raw group's).
func (a *audience) await(now func() int64, at []int64) error {
	for n := a.tokens; n > 0; n-- {
		select {
		case who := <-a.done:
			if at != nil {
				if who == rawToken {
					who = int32(len(at) - 1)
				}
				at[who] = now()
			}
		case err := <-a.fail:
			return err
		}
	}
	return nil
}

// liveRun is one run of a live workload.
type liveRun struct {
	w   workloadSpec
	o   runOptions
	now func() int64
	mt  *meter

	dir string
	cfg netcast.StationConfig
	st  *netcast.Station
	aud *audience
	sh  *shadow // traced runs only

	fail      chan error // shared by every audience of the run and the watchdog
	cycle     int64      // cycles ticked so far, warm-up included
	progress  atomic.Int64
	bufs      []*spanBuf
	conductor *spanBuf
}

func (r *liveRun) stationConfig(dir string) netcast.StationConfig {
	return netcast.StationConfig{
		Addr:     "127.0.0.1:0",
		DBSize:   r.w.db,
		Versions: versions,
		Workload: workload.ServerConfig{
			DBSize: r.w.db, UpdateRange: r.w.updateRange, Offset: r.w.offset, Theta: theta,
			TxPerCycle: r.w.txs, UpdatesPerCycle: r.w.updates, ReadsPerUpdate: readsPerUpd,
		},
		Seed:      r.o.seed,
		Workers:   1,
		LogDir:    dir,
		MemCycles: memCycles,
	}
}

func (r *liveRun) newBuf(owner string) *spanBuf {
	if !r.o.trace {
		return nil
	}
	b := newSpanBuf(len(r.bufs)+1, owner)
	r.bufs = append(r.bufs, b)
	return b
}

// setup makes the log directory, starts the station, attaches the
// audience and runs the warm-up cycles: everything between process start
// and the first measured cycle.
func (r *liveRun) setup() error {
	dir, err := newRunDir(r.o.tmpRoot)
	if err != nil {
		return err
	}
	r.dir, r.aud, r.sh = dir, nil, nil
	r.cfg = r.stationConfig(dir + "/log")
	st, err := netcast.NewStation(r.cfg)
	if err != nil {
		return err
	}
	r.st = st
	r.cycle = 0
	r.bufs = nil
	r.conductor = r.newBuf("conductor")
	if r.o.trace {
		r.sh, err = newShadow(r, dir+"/shadow")
		if err != nil {
			return err
		}
	}
	if err := r.attach(); err != nil {
		return err
	}
	warm := &phase{tokenAt: make([]int64, r.aud.tokens)}
	for i := 0; i < r.o.prof.warmup; i++ {
		if err := r.tick(warm); err != nil {
			return err
		}
	}
	return nil
}

// attach subscribes the whole audience before the first tick, so nobody
// is greeted with a stale frame.
func (r *liveRun) attach() error {
	w := r.w
	a := &audience{
		tokens: len(w.clients) + 1,
		done:   make(chan int32, len(w.clients)+1), // one token per member and one for the raw group per cycle
		fail:   r.fail,
		nRaw:   int64(w.raws),
		sum:    sha256.New(),
		keep:   r.o.trace,
	}
	a.target.Store(-1)
	a.signalled.Store(-1)
	r.aud = a
	cast := r.st.Cast()
	subscribe := func() (net.Conn, error) {
		t0 := r.now()
		c, err := cast.SubscribeLocal()
		a.subscribeNs = append(a.subscribeNs, r.now()-t0)
		return c, err
	}
	for i, name := range w.clients {
		conn, err := subscribe()
		if err != nil {
			return err
		}
		if i == 0 {
			a.count = &countConn{Conn: conn}
			conn = a.count
		}
		tn := netcast.TuneBuffered(conn, 64<<10)
		a.tuners = append(a.tuners, tn)
		m := &member{
			sch: schemeByName(name), seed: r.o.seed + 1000 + int64(i), db: w.db,
			feed:        &stepFeed{inner: tn, done: a.done, id: int32(i)},
			from:        model.Cycle(r.o.prof.warmup),
			digestUntil: model.Cycle(r.o.prof.verifyCycles),
		}
		if r.o.trace {
			m.traceInto(r.newBuf(fmt.Sprintf("client-%d-%s", i, name)), r.now, "netcast.next")
		}
		if i == 0 {
			m.feed.onHeard = func() {
				t := a.count.read.Load() * a.nRaw
				a.target.Store(t)
				if a.drained.Load() == t {
					a.rawDone(t)
				}
			}
		}
		a.members = append(a.members, m)
	}
	for i := 0; i < w.raws; i++ {
		conn, err := subscribe()
		if err != nil {
			return err
		}
		a.wg.Add(1)
		go a.drain(conn, i == 0)
	}
	for _, m := range a.members {
		a.wg.Add(1)
		go func(m *member) {
			defer a.wg.Done()
			if err := m.run(); err != nil && !a.closing.Load() {
				a.failed(fmt.Errorf("client %s seed %d: %w", m.sch.name, m.seed, err))
			}
		}(m)
	}
	return nil
}

// tick runs one lockstep cycle: Tick, then wait until the whole audience
// is done with the cycle. ph collects the samples (set-up passes a scratch
// phase for the warm-up).
func (r *liveRun) tick(ph *phase) error {
	a := r.aud
	traced := r.o.trace
	var cpu0 int64
	if traced {
		a.captured = a.captured[:0]
		cpu0 = cpuNs()
	}
	t0 := r.now()
	if err := r.st.Tick(); err != nil {
		return err
	}
	t1 := r.now()
	var tDrained int64
	if traced {
		cast := r.st.Cast()
		if d := cast.QueueDepth(); d > ph.queueDepthMax {
			ph.queueDepthMax = d
		}
		for cast.QueueDepth() != 0 {
			runtime.Gosched()
		}
		tDrained = r.now()
	}
	var at []int64
	if traced {
		at = ph.tokenAt
	}
	if err := a.await(r.now, at); err != nil {
		return err
	}
	t2 := r.now()
	r.cycle++
	r.progress.Store(r.cycle)
	ph.onairNs = append(ph.onairNs, t1-t0)
	ph.heardNs = append(ph.heardNs, t2-t0)
	if traced {
		ph.cpuNs += cpuNs() - cpu0
		c := r.conductor
		root := c.begin("bench.cycle", r.cycle, t0)
		c.leaf("netcast.tick", r.cycle, t0, t1)
		c.leaf("netcast.drain_wait", r.cycle, t1, tDrained)
		c.finish(root, t2)
		ph.tickEnd = append(ph.tickEnd, t1)
		ph.rawAt = append(ph.rawAt, at[len(at)-1])
		return r.sh.cycle(r.cycle, a.captured)
	}
	return nil
}

// phase holds the measured phase's raw samples.
type phase struct {
	cycles           int
	onairNs, heardNs []int64
	before, after    counters
	pauseNs          uint64
	heapEndMB        float64
	frameBytes       int64 // bytes on air during the phase, per subscriber

	// Traced runs.
	queueDepthMax int64
	tokenAt       []int64 // scratch: arrival time of each done token this cycle
	tickEnd       []int64
	rawAt         []int64
	cpuNs         int64
	heapPeak      uint64
}

// measure runs the measured phase: a fixed number of cycles, or as many
// as fit in o.seconds.
func (r *liveRun) measure() (*phase, error) {
	ph := &phase{tokenAt: make([]int64, r.aud.tokens)}
	want := r.w.cycles / r.o.prof.cycleDiv
	if want < 8 {
		want = 8
	}
	var deadline int64
	if r.o.seconds > 0 {
		want = 0
		deadline = r.now() + int64(r.o.seconds*1e9)
	}
	runtime.GC()
	bytes0 := r.aud.count.read.Load()
	pause0 := gcPauseNs()
	ph.before = r.mt.read()
	ph.heapPeak = ph.before.heapLive
	for want == 0 || ph.cycles < want {
		if deadline != 0 && r.now() >= deadline {
			break
		}
		if err := r.tick(ph); err != nil {
			return nil, err
		}
		ph.cycles++
		if ph.cycles == heapAtCycle {
			ph.heapEndMB = liveHeapMB()
		}
		if r.o.trace && ph.cycles%32 == 0 {
			if h := r.mt.read().heapLive; h > ph.heapPeak {
				ph.heapPeak = h
			}
		}
	}
	ph.after = r.mt.read()
	if ph.after.heapLive > ph.heapPeak {
		ph.heapPeak = ph.after.heapLive
	}
	ph.pauseNs = gcPauseNs() - pause0
	ph.frameBytes = r.aud.count.read.Load() - bytes0
	if ph.cycles < heapAtCycle {
		ph.heapEndMB = liveHeapMB()
	}
	return ph, nil
}

// watchdog fails the run when no cycle completes for a long time, so a
// lost token shows up as an error and not as a hang.
func (r *liveRun) watchdog(stop <-chan struct{}) {
	t := time.NewTicker(30 * time.Second)
	defer t.Stop()
	last := int64(-1)
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			cur := r.progress.Load()
			if cur == last {
				select {
				case r.fail <- errors.New("no cycle completed in 30 s"):
				default:
				}
				return
			}
			last = cur
		}
	}
}

// closeStation stops the station and waits for the audience to leave.
// After the last done token every member is parked in (or about to enter)
// its tuner's read, so closing the connections ends them all with
// whatever query was in flight discarded.
func (r *liveRun) closeStation() error {
	r.aud.closing.Store(true)
	err := r.st.Close()
	r.aud.wg.Wait()
	if r.sh != nil {
		if serr := r.sh.close(); err == nil {
			err = serr
		}
	}
	return err
}

type restartResult struct {
	restartNs  []int64
	recovered  int64 // torn-tail bytes the reopened logs truncated
	catchupNs  int64
	cycles     int
	replayHash []byte
}

// restartPhase measures a restart and a late joiner's catch-up.
//
// Reopening costs a scan of the whole log plus a replay of the cycles
// since the last snapshot, so it is timed on a log of fixed length: a
// second station of the same configuration and seed, without an audience,
// ticks prof.restartCycles cycles into its own directory and is then
// reopened prof.restarts times. The length of the measured phase (which
// --seconds makes depend on the host's speed) does not enter.
//
// The run's own station is then reopened once, must resume at exactly the
// next cycle, and one late joiner replays every cycle, all of them spilled
// by then. The replayed cycles are re-encoded, untimed, into the hash the
// verification pass compares with what the raw subscriber heard.
func (r *liveRun) restartPhase() (*restartResult, error) {
	res := &restartResult{}
	probe := r.cfg
	probe.LogDir = r.dir + "/restart"
	st, err := netcast.NewStation(probe)
	if err != nil {
		return nil, err
	}
	for i := 0; i < r.o.prof.restartCycles; i++ {
		if err := st.Tick(); err != nil {
			_ = st.Close()
			return nil, err
		}
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	for i := 0; i < r.o.prof.restarts; i++ {
		t0 := r.now()
		st, err = netcast.NewStation(probe)
		if err != nil {
			return nil, fmt.Errorf("reopen station: %w", err)
		}
		res.restartNs = append(res.restartNs, r.now()-t0)
		res.recovered += st.Registry().Counter("durlog.recover.truncated_bytes").Value()
		got := int(st.Source().Produced())
		if err := st.Close(); err != nil {
			return nil, err
		}
		if got != r.o.prof.restartCycles {
			return nil, fmt.Errorf("reopened station resumed at cycle %d, want %d", got, r.o.prof.restartCycles)
		}
	}

	st, err = netcast.NewStation(r.cfg)
	if err != nil {
		return nil, fmt.Errorf("reopen station: %w", err)
	}
	res.recovered += st.Registry().Counter("durlog.recover.truncated_bytes").Value()
	err = r.catchUp(res, st.Source())
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	return res, err
}

// catchUp is the late joiner: it replays every cycle of the reopened
// source from its log.
func (r *liveRun) catchUp(res *restartResult, src *cyclesource.Source) error {
	if got := int64(src.Produced()); got != r.cycle {
		return fmt.Errorf("reopened station resumed at cycle %d, want %d", got, r.cycle)
	}
	res.cycles = int(r.cycle)
	sum := sha256.New()
	feed := src.NewFeedAt(0)
	for i := 0; i < res.cycles; i++ {
		t0 := r.now()
		b, err := feed.Next()
		res.catchupNs += r.now() - t0
		if err != nil {
			return fmt.Errorf("late joiner at cycle %d: %w", i, err)
		}
		frame, err := wire.Encode(b)
		if err != nil {
			return err
		}
		sum.Write(frame)
	}
	res.replayHash = sum.Sum(nil)
	return nil
}

// runLive runs one live workload once.
func runLive(w workloadSpec, o runOptions) (*result, error) {
	r := &liveRun{w: w, o: o, now: o.now, mt: newMeter(), fail: make(chan error, 1)}
	res := newResult(w.name, o)
	res.spinBefore = spinMs(r.now, o.prof.spinIters)
	stop := make(chan struct{})
	defer close(stop)
	go r.watchdog(stop)

	t0 := r.now()
	if err := r.setup(); err != nil {
		r.abandon()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setupNs := []int64{r.now() - t0}

	ph, err := r.measure()
	if err != nil {
		r.abandon()
		return nil, fmt.Errorf("measured phase: %w", err)
	}
	traffic := r.st.Cast().Traffic()
	heard := r.aud.sum // read after the audience is gone
	if err := r.closeStation(); err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(r.dir) }()
	var corrupt int64
	for _, tn := range r.aud.tuners {
		corrupt += tn.CorruptFrames()
	}
	rs, err := r.restartPhase()
	if err != nil {
		return nil, fmt.Errorf("restart phase: %w", err)
	}

	wallS := float64(sumNs(ph.heardNs)) / 1e9
	var tot outcomes
	for _, m := range r.aud.members {
		tot.merge(&m.out)
	}
	cyc := float64(ph.cycles)
	res.cyclesPerS = cyc / wallS
	res.exact = exact{cycles: int64(ph.cycles), queries: tot.queries, aborted: tot.aborted,
		frameBytes: ph.frameBytes, latencyCycles: tot.latencyCycles}

	// Failures: every cycle owed to every audience member, plus every query.
	audienceSize := int64(len(w.clients) + w.raws)
	res.attempted = r.cycle*audienceSize + tot.queries
	res.fail(traffic.Evictions, "subscribers evicted")
	res.fail(traffic.Drops, "subscribers dropped")
	res.fail(corrupt, "corrupt frames")
	if err := r.verify(res, heard.Sum(nil), rs); err != nil {
		return nil, err
	}
	if o.trace {
		if err := r.layers(res, ph, rs, traffic, corrupt); err != nil {
			return nil, err
		}
		res.spinAfter = spinMs(r.now, o.prof.spinIters)
		return res, nil
	}

	// The set-ups that only feed the setup_s median come last, so that their
	// garbage — a closed station's pipes stay referenced by write-deadline
	// timers for seconds — is in no other number.
	for i := 1; i < o.prof.setups; i++ {
		if err := os.RemoveAll(r.dir); err != nil {
			return nil, err
		}
		t0 := r.now()
		if err := r.setup(); err != nil {
			r.abandon()
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setupNs = append(setupNs, r.now()-t0)
		if err := r.closeStation(); err != nil {
			return nil, err
		}
	}
	res.set("setup_s", quantileNs(setupNs, 0.5, 1e9), len(setupNs))
	res.set("cycles_per_s", res.cyclesPerS, ph.cycles)
	res.set("heard_ms_p50", quantileNs(ph.heardNs, 0.5, 1e6), ph.cycles)
	res.set("heard_ms_p95", quantileNs(ph.heardNs, 0.95, 1e6), ph.cycles)
	res.set("onair_ms_p50", quantileNs(ph.onairNs, 0.5, 1e6), ph.cycles)
	res.set("queries_per_s", float64(tot.queries)/wallS, int(tot.queries))
	res.set("abort_rate", ratio(float64(tot.aborted), float64(tot.queries)), int(tot.queries))
	res.set("cpu_ms_per_cycle", float64(ph.after.cpuNs-ph.before.cpuNs)/1e6/cyc, ph.cycles)
	res.set("allocs_per_cycle", float64(ph.after.allocObjects-ph.before.allocObjects)/cyc, ph.cycles)
	res.set("heap_mb_end", ph.heapEndMB, 1)
	res.set("frame_bytes", float64(ph.frameBytes)/cyc, ph.cycles)
	res.set("restart_ms", quantileNs(rs.restartNs, 0.5, 1e6), len(rs.restartNs))
	res.set("catchup_cycles_per_s", float64(rs.cycles)/(float64(rs.catchupNs)/1e9), rs.cycles)
	res.spinAfter = spinMs(r.now, o.prof.spinIters)
	return res, nil
}

// abandon tears down after an error, best effort.
func (r *liveRun) abandon() {
	if r.st != nil && r.aud != nil {
		_ = r.closeStation()
	} else if r.st != nil {
		_ = r.st.Close()
	}
	if r.dir != "" {
		_ = os.RemoveAll(r.dir)
	}
}
