package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"bpush/internal/broadcast"
	"bpush/internal/cyclesource"
	"bpush/internal/durlog"
	"bpush/internal/model"
	"bpush/internal/server"
	"bpush/internal/wire"
	"bpush/internal/workload"
)

// The shadow chain runs on the conductor's goroutine between ticks, while
// the whole audience is parked. It replays the cycle the station just put
// on air through each producer-side layer's public entry point, once, in
// the order the station's cycle source calls them, and fails the run
// unless the frame it arrives at is byte-identical to the one the raw
// subscriber captured off the air. Because nothing else runs, the
// allocation delta around each call is that call's own.
//
// It then hands the decoded becast to one shadow client per scheme in the
// audience: the same scheme and seed as a real member, driven alone, so
// its NewCycle allocation counts are exact and its outcomes must equal
// the real member's.

type shadow struct {
	r    *liveRun
	buf  *spanBuf
	gen  *workload.ServerGen
	srv  *server.Server
	prog broadcast.Program
	dlog *durlog.Log

	clients []*shadowClient

	// Per-cycle samples of the measured phase.
	ops, txs, slots, report, overflow, edges, frameBytes []float64
	commitAllocs, encodeAllocs, appendAllocs             []float64
	decodeAllocs, decodeKB                               []float64
}

type shadowClient struct {
	m    *member
	of   int // index of the audience member it mirrors
	in   chanFeed
	done chan int32
	err  chan error
}

func newShadow(r *liveRun, dir string) (*shadow, error) {
	cfg := r.cfg
	srv, err := server.New(server.Config{DBSize: cfg.DBSize, MaxVersions: cfg.Versions, Workers: 1})
	if err != nil {
		return nil, err
	}
	gen, err := workload.NewServerGen(cfg.Workload, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return nil, err
	}
	dlog, err := durlog.Open(dir, durlog.Options{})
	if err != nil {
		return nil, err
	}
	s := &shadow{
		r: r, buf: r.newBuf("shadow-chain"), gen: gen, srv: srv,
		prog: broadcast.FlatProgram(cfg.DBSize), dlog: dlog,
	}
	seen := map[string]bool{}
	for i, name := range r.w.clients {
		if seen[name] {
			continue
		}
		seen[name] = true
		sc := &shadowClient{of: i, in: make(chanFeed), done: make(chan int32), err: make(chan error, 1)}
		sc.m = &member{
			sch: schemeByName(name), seed: r.o.seed + 1000 + int64(i), db: r.w.db,
			feed:        &stepFeed{inner: sc.in, done: sc.done},
			from:        model.Cycle(r.o.prof.warmup),
			digestUntil: model.Cycle(r.o.prof.verifyCycles),
			meter:       r.mt,
			spanPrefix:  "shadow.",
		}
		sc.m.traceInto(r.newBuf("shadow-client-"+name), r.now, "shadow.next")
		go func() { sc.err <- sc.m.run() }()
		s.clients = append(s.clients, sc)
	}
	return s, nil
}

// cycle replays the station's cycle number seq (1-based) and compares the
// resulting frame with the captured one.
func (s *shadow) cycle(seq int64, captured []byte) error {
	r, now, mt, buf := s.r, s.r.now, s.r.mt, s.buf
	keep := seq > int64(r.o.prof.warmup)
	root := buf.begin("shadow.chain", seq, now())

	var log *server.CycleLog
	if seq > 1 {
		// The first becast carries the initial load: nothing commits.
		t0 := now()
		txs := s.gen.Cycle()
		buf.leaf("workload.draw", seq, t0, now())
		a0, _ := mt.allocs()
		t0 = now()
		var err error
		log, err = s.srv.CommitAndAdvance(txs)
		t1 := now()
		a1, _ := mt.allocs()
		if err != nil {
			return fmt.Errorf("shadow commit: %w", err)
		}
		buf.leaf("server.commit", seq, t0, t1)
		if keep {
			ops := 0
			for _, tx := range txs {
				ops += len(tx.Ops)
			}
			s.ops = append(s.ops, float64(ops))
			s.txs = append(s.txs, float64(log.NumCommitted))
			s.commitAllocs = append(s.commitAllocs, float64(a1-a0))
		}
	}

	t0 := now()
	b, err := broadcast.Assemble(s.srv, log, s.prog)
	t1 := now()
	if err != nil {
		return fmt.Errorf("shadow assemble: %w", err)
	}
	buf.leaf("broadcast.assemble", seq, t0, t1)
	t0 = now()
	_, err = b.PrimeIndex()
	t1 = now()
	if err != nil {
		return fmt.Errorf("shadow prime: %w", err)
	}
	buf.leaf("broadcast.prime", seq, t0, t1)

	a0, _ := mt.allocs()
	t0 = now()
	frame, err := wire.Encode(b)
	t1 = now()
	a1, _ := mt.allocs()
	if err != nil {
		return fmt.Errorf("shadow encode: %w", err)
	}
	buf.leaf("wire.encode", seq, t0, t1)
	if !bytes.Equal(frame, captured) {
		return fmt.Errorf("cycle %d: shadow chain frame (%d B) differs from the frame heard on air (%d B)", seq, len(frame), len(captured))
	}

	a2, _ := mt.allocs()
	t0 = now()
	err = s.dlog.AppendCycle(b)
	t1 = now()
	a3, _ := mt.allocs()
	if err != nil {
		return fmt.Errorf("shadow append: %w", err)
	}
	buf.leaf("durlog.append", seq, t0, t1)
	if seq%cyclesource.DefaultSnapshotEvery == 0 {
		t0 = now()
		err = s.dlog.AppendSnapshot(&durlog.Snapshot{Seq: uint64(seq), State: s.srv.ExportState()})
		t1 = now()
		if err != nil {
			return fmt.Errorf("shadow snapshot: %w", err)
		}
		buf.leaf("durlog.snapshot", seq, t0, t1)
	}

	a4, k4 := mt.allocs()
	t0 = now()
	heardB, err := wire.DecodeBytes(frame)
	t1 = now()
	a5, k5 := mt.allocs()
	if err != nil {
		return fmt.Errorf("shadow decode: %w", err)
	}
	buf.leaf("wire.decode", seq, t0, t1)
	if keep {
		s.slots = append(s.slots, float64(b.Len()))
		s.report = append(s.report, float64(len(b.Report)))
		s.overflow = append(s.overflow, float64(len(b.Overflow)))
		s.edges = append(s.edges, float64(len(b.Delta.Edges)))
		s.frameBytes = append(s.frameBytes, float64(len(frame)))
		s.encodeAllocs = append(s.encodeAllocs, float64(a1-a0))
		s.appendAllocs = append(s.appendAllocs, float64(a3-a2))
		s.decodeAllocs = append(s.decodeAllocs, float64(a5-a4))
		s.decodeKB = append(s.decodeKB, float64(k5-k4)/1024)
	}
	buf.finish(root, now())

	// One shadow client at a time, each alone on the machine.
	for _, sc := range s.clients {
		select {
		case sc.in <- heardB:
		case err := <-sc.err:
			return fmt.Errorf("shadow client %s: %w", sc.m.sch.name, err)
		}
		select {
		case <-sc.done:
		case err := <-sc.err:
			return fmt.Errorf("shadow client %s: %w", sc.m.sch.name, err)
		}
	}
	return nil
}

// close ends the shadow clients and the second log.
func (s *shadow) close() error {
	for _, sc := range s.clients {
		close(sc.in)
		// A client parked in its done send is released by draining it.
		for waiting := true; waiting; {
			select {
			case <-sc.done:
			case <-sc.err:
				waiting = false
			}
		}
	}
	return s.dlog.Close()
}
