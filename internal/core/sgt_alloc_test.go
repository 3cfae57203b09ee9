package core

import (
	"math/rand"
	"strings"
	"testing"

	"bpush/internal/broadcast"
	"bpush/internal/model"
	"bpush/internal/sg"
)

// sgtNewCycleAllocs is the whole steady-state allocation budget of one
// SGT NewCycle, on either path, whatever the delta's size.
const sgtNewCycleAllocs = 0

// sgtCycles builds n becasts of a width-transaction workload whose
// delta carries exactly edges in-edges per cycle after the first, drawn
// from the last four cycles. Items 1..20 are reported each cycle; the rest of the
// 200-item database never is.
func sgtCycles(t *testing.T, n, edges int, shared bool) []*broadcast.Bcast {
	t.Helper()
	const width, db = 50, 200
	rng := rand.New(rand.NewSource(int64(edges)))
	out := make([]*broadcast.Bcast, 0, n)
	for c := model.Cycle(1); c <= model.Cycle(n); c++ {
		d := sg.Delta{Cycle: c}
		for s := 0; s < width; s++ {
			d.Nodes = append(d.Nodes, model.TxID{Cycle: c, Seq: uint32(s)})
		}
		seen := map[sg.Edge]bool{}
		for c > 1 && len(d.Edges) < edges { // cycle 1 airs the initial load
			back := model.Cycle(rng.Intn(4))
			if back >= c {
				back = c - 1
			}
			e := sg.Edge{
				From: model.TxID{Cycle: c - back, Seq: uint32(rng.Intn(width))},
				To:   model.TxID{Cycle: c, Seq: uint32(rng.Intn(width))},
			}
			if e.From.Before(e.To) && !seen[e] {
				seen[e] = true
				d.Edges = append(d.Edges, e)
			}
		}
		sg.SortEdges(d.Edges)
		var report []broadcast.InvalidationEntry
		entries := make([]broadcast.Entry, db)
		for i := range entries {
			item := model.ItemID(i + 1)
			v := model.Version{Value: model.Value(c), Cycle: 1}
			if item <= 20 && c > 1 {
				w := model.TxID{Cycle: c, Seq: uint32(int(item) % width)}
				report = append(report, broadcast.InvalidationEntry{Item: item, FirstWriter: w})
				v = model.Version{Value: model.Value(c), Cycle: c, Writer: w}
			}
			entries[i] = broadcast.Entry{Item: item, Overflow: -1, Version: v}
		}
		b, err := broadcast.New(c, report, d, entries, nil, width, 0)
		if err != nil {
			t.Fatal(err)
		}
		if shared {
			if _, err := b.PrimeIndex(); err != nil {
				t.Fatal(err)
			}
		}
		out = append(out, b)
	}
	return out
}

// sgtSteadyAllocs measures, on warmed-up scratch, one NewCycle of an SGT
// client whose open transaction the reports do not touch, and then one
// cycle test against precedence targets spread over a retained window.
func sgtSteadyAllocs(t *testing.T, edges int, shared bool) (newCycle, cycleTest float64) {
	t.Helper()
	const warm, runs, window = 40, 40, 6
	bs := sgtCycles(t, warm+runs+1+window, edges, shared)
	sch, err := New(Options{Kind: KindSGT})
	if err != nil {
		t.Fatal(err)
	}
	s := sch.(*sgt)
	next := 0
	step := func() {
		if err := s.NewCycle(bs[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	step()
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ServeChannel(150, 0); err != nil { // never reported
		t.Fatal(err)
	}
	for next < warm {
		step()
	}
	newCycle = testing.AllocsPerRun(runs, step)

	// Read a reported item: each later cycle's first writer of it becomes
	// a precedence target, and the graph keeps every block since.
	if _, _, err := s.ServeChannel(7, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < window; i++ {
		step()
	}
	if len(s.targets) != window {
		t.Fatalf("%d precedence targets, want %d", len(s.targets), window)
	}
	last := bs[next-1].Cycle
	cycleTest = testing.AllocsPerRun(20, func() {
		for seq := uint32(0); seq < 50; seq++ {
			s.graph.ReachableFromAny(s.targets, model.TxID{Cycle: last, Seq: seq})
		}
	})
	return newCycle, cycleTest
}

// TestSGTNewCycleAllocsFlatInEdges pins SGT's per-cycle graph work to no
// allocation: the delta is stored as its cycle's block, not copied into
// adjacency lists, so a cycle of 2,000 in-edges costs NewCycle what one of
// 100 does, on a becast the producer primed ("shared") and on one the
// scheme primes itself, as it does a decoded frame ("local"). The cycle
// test allocates nothing either.
func TestSGTNewCycleAllocsFlatInEdges(t *testing.T) {
	for _, shared := range []bool{true, false} {
		name := "local"
		if shared {
			name = "shared"
		}
		t.Run(name, func(t *testing.T) {
			small, smallTest := sgtSteadyAllocs(t, 100, shared)
			large, largeTest := sgtSteadyAllocs(t, 2000, shared)
			if small != sgtNewCycleAllocs || large != sgtNewCycleAllocs {
				t.Errorf("NewCycle allocates %.1f objects at 100 delta edges and %.1f at 2,000, want %d at both",
					small, large, sgtNewCycleAllocs)
			}
			if smallTest != 0 || largeTest != 0 {
				t.Errorf("cycle test allocates %.1f objects at 100 edges and %.1f at 2,000, want 0", smallTest, largeTest)
			}
		})
	}
}

// TestSGTMalformedDeltaIsAnError: a decoded delta that is not its cycle's
// canonical in-edge block makes NewCycle fail cleanly; the client never
// reaches a verdict on it.
func TestSGTMalformedDeltaIsAnError(t *testing.T) {
	for _, tc := range []struct {
		name  string
		edges []sg.Edge
	}{
		{"edge into another cycle", []sg.Edge{{From: model.TxID{Cycle: 1}, To: model.TxID{Cycle: 3}}}},
		{"out-of-order pair", []sg.Edge{
			{From: model.TxID{Cycle: 1}, To: model.TxID{Cycle: 2, Seq: 1}},
			{From: model.TxID{Cycle: 1}, To: model.TxID{Cycle: 2, Seq: 0}},
		}},
		{"duplicate pair", []sg.Edge{
			{From: model.TxID{Cycle: 1}, To: model.TxID{Cycle: 2}},
			{From: model.TxID{Cycle: 1}, To: model.TxID{Cycle: 2}},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bs := sgtCycles(t, 2, 1, false)
			b := bs[1]
			b.Delta.Edges = tc.edges // as a decoder would hand it over
			sch, err := New(Options{Kind: KindSGT})
			if err != nil {
				t.Fatal(err)
			}
			if err := sch.NewCycle(bs[0]); err != nil {
				t.Fatal(err)
			}
			if err := sch.Begin(); err != nil {
				t.Fatal(err)
			}
			if _, _, err := sch.ServeChannel(7, 0); err != nil {
				t.Fatal(err)
			}
			err = sch.NewCycle(b)
			if err == nil || !strings.Contains(err.Error(), "integrate SG delta") {
				t.Fatalf("NewCycle(malformed delta) = %v, want an integrate-SG-delta error", err)
			}
		})
	}
}
