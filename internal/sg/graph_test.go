package sg_test

import (
	"math/rand"
	"sort"
	"testing"

	"bpush/internal/model"
	"bpush/internal/sg"
	"bpush/internal/sgtest"
)

func tx(c model.Cycle, s uint32) model.TxID { return model.TxID{Cycle: c, Seq: s} }

// deltas groups edges into one canonical delta per target cycle, the form
// the producer airs: sorted by (To, From), duplicates dropped, declaring
// the cycle's transactions up to the highest target, in cycle order.
func deltas(edges ...sg.Edge) []sg.Delta {
	byCycle := map[model.Cycle][]sg.Edge{}
	for _, e := range edges {
		byCycle[e.To.Cycle] = append(byCycle[e.To.Cycle], e)
	}
	out := make([]sg.Delta, 0, len(byCycle))
	for c, es := range byCycle {
		es = canonical(es)
		out = append(out, sg.Delta{Cycle: c, Nodes: nodes(c, int(es[len(es)-1].To.Seq)+1), Edges: es})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Cycle < out[j].Cycle })
	return out
}

// nodes declares n transactions of cycle c, as the server numbers them.
func nodes(c model.Cycle, n int) []model.TxID {
	out := make([]model.TxID, n)
	for s := range out {
		out[s] = tx(c, uint32(s))
	}
	return out
}

// canonical sorts es into (To, From) order and drops duplicates, in place.
func canonical(es []sg.Edge) []sg.Edge {
	sort.Slice(es, func(i, j int) bool { return sg.EdgeLess(es[i], es[j]) })
	uniq := es[:0]
	for i, e := range es {
		if i == 0 || e != es[i-1] {
			uniq = append(uniq, e)
		}
	}
	return uniq
}

// build applies deltas(edges...) to a fresh ring.
func build(t testing.TB, edges ...sg.Edge) *sg.Graph {
	t.Helper()
	g := sg.New()
	for _, d := range deltas(edges...) {
		if err := g.Apply(d); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func reachable(g *sg.Graph, src, dst model.TxID) bool {
	return g.ReachableFromAny([]model.TxID{src}, dst)
}

func TestReachableBasic(t *testing.T) {
	// Chain 1.0 -> 1.1 -> 2.0 -> 3.0, plus 2.5, declared with no edges.
	g := build(t,
		sg.Edge{From: tx(1, 0), To: tx(1, 1)},
		sg.Edge{From: tx(1, 1), To: tx(2, 0)},
		sg.Edge{From: tx(2, 0), To: tx(3, 0)},
	)
	tests := []struct {
		name     string
		src, dst model.TxID
		want     bool
	}{
		{"direct", tx(1, 0), tx(1, 1), true},
		{"transitive", tx(1, 0), tx(3, 0), true},
		{"self", tx(2, 0), tx(2, 0), true},
		{"backward", tx(3, 0), tx(1, 0), false},
		{"isolated", tx(1, 0), tx(2, 5), false},
		{"unknown source", tx(9, 9), tx(3, 0), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := reachable(g, tt.src, tt.dst); got != tt.want {
				t.Errorf("reachable(%v, %v) = %v, want %v", tt.src, tt.dst, got, tt.want)
			}
		})
	}
}

func TestReachableFromAny(t *testing.T) {
	g := build(t,
		sg.Edge{From: tx(1, 0), To: tx(2, 0)},
		sg.Edge{From: tx(1, 1), To: tx(2, 1)},
		sg.Edge{From: tx(2, 1), To: tx(3, 0)},
	)
	if !g.ReachableFromAny([]model.TxID{tx(1, 0), tx(1, 1)}, tx(3, 0)) {
		t.Error("tx(3.0) should be reachable from {1.0, 1.1} via 1.1")
	}
	if g.ReachableFromAny([]model.TxID{tx(1, 0)}, tx(3, 0)) {
		t.Error("tx(3.0) should not be reachable from {1.0}")
	}
	if g.ReachableFromAny(nil, tx(3, 0)) {
		t.Error("empty source set must reach nothing")
	}
	// Source equals destination counts as reachable (path length 0): the
	// first writer being the last writer is an immediate cycle.
	if !g.ReachableFromAny([]model.TxID{tx(3, 0)}, tx(3, 0)) {
		t.Error("source == destination must be reachable")
	}
}

func TestApplyDelta(t *testing.T) {
	g := sg.New()
	d := sg.Delta{
		Cycle: 2,
		Nodes: []model.TxID{tx(2, 0), tx(2, 1)},
		Edges: []sg.Edge{{From: tx(2, 0), To: tx(2, 1)}},
	}
	if err := g.Apply(d); err != nil {
		t.Fatal(err)
	}
	if !reachable(g, tx(2, 0), tx(2, 1)) {
		t.Error("applied edge 2.0 -> 2.1 not reachable")
	}
	bad := sg.Delta{Cycle: 3, Edges: []sg.Edge{{From: tx(3, 0), To: tx(2, 0)}}}
	if err := g.Apply(bad); err == nil {
		t.Error("Apply with backward edge succeeded, want error")
	}
}

func TestPruneBefore(t *testing.T) {
	g := build(t,
		sg.Edge{From: tx(1, 0), To: tx(2, 0)},
		sg.Edge{From: tx(2, 0), To: tx(3, 0)},
		sg.Edge{From: tx(3, 0), To: tx(4, 0)},
	)
	if !reachable(g, tx(1, 0), tx(4, 0)) {
		t.Fatal("chain 1.0 -> 4.0 not reachable before prune")
	}
	g.PruneBefore(3)
	if !reachable(g, tx(3, 0), tx(4, 0)) {
		t.Error("retained edge lost by prune")
	}
	// Sources and destinations in the pruned region have no retained
	// edges.
	if reachable(g, tx(1, 0), tx(4, 0)) || reachable(g, tx(2, 0), tx(3, 0)) {
		t.Error("path through a pruned source reported reachable")
	}
	if reachable(g, tx(2, 0), tx(2, 0)) {
		t.Error("pruned destination reported reachable")
	}
	// Pruning never moves backwards.
	g.PruneBefore(1)
	if reachable(g, tx(2, 0), tx(3, 0)) {
		t.Error("backward prune restored a pruned edge")
	}
	// A later delta's edges from pruned sources are skipped; its other
	// edges count.
	if err := g.Apply(sg.Delta{Cycle: 5, Nodes: nodes(5, 1), Edges: []sg.Edge{
		{From: tx(2, 7), To: tx(5, 0)},
		{From: tx(4, 0), To: tx(5, 0)},
	}}); err != nil {
		t.Fatal(err)
	}
	if reachable(g, tx(2, 7), tx(5, 0)) {
		t.Error("edge from a pruned source reported reachable")
	}
	if !reachable(g, tx(3, 0), tx(5, 0)) {
		t.Error("path 3.0 -> 4.0 -> 5.0 lost")
	}
	// A delta wholly below the floor is dropped.
	if err := g.Apply(sg.Delta{Cycle: 2, Nodes: nodes(2, 2), Edges: []sg.Edge{{From: tx(2, 0), To: tx(2, 1)}}}); err != nil {
		t.Fatal(err)
	}
	if reachable(g, tx(2, 0), tx(2, 1)) {
		t.Error("delta below the prune floor was stored")
	}
}

func TestReachabilityAgainstBruteForce(t *testing.T) {
	// Differential test: the backward block search must agree with a
	// naive BFS that ignores ordering.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		naive := make(map[model.TxID][]model.TxID)
		var ids []model.TxID
		for c := model.Cycle(1); c <= 6; c++ {
			for s := uint32(0); s < 4; s++ {
				ids = append(ids, tx(c, s))
			}
		}
		var es []sg.Edge
		for i := 0; i < 60; i++ {
			a := ids[rng.Intn(len(ids))]
			b := ids[rng.Intn(len(ids))]
			if a.Before(b) {
				es = append(es, sg.Edge{From: a, To: b})
				naive[a] = append(naive[a], b)
			}
		}
		g := build(t, es...)
		bfs := func(src, dst model.TxID) bool {
			if src == dst {
				return true
			}
			seen := map[model.TxID]bool{src: true}
			queue := []model.TxID{src}
			for len(queue) > 0 {
				n := queue[0]
				queue = queue[1:]
				for _, next := range naive[n] {
					if next == dst {
						return true
					}
					if !seen[next] {
						seen[next] = true
						queue = append(queue, next)
					}
				}
			}
			return false
		}
		for i := 0; i < 100; i++ {
			a := ids[rng.Intn(len(ids))]
			b := ids[rng.Intn(len(ids))]
			if got, want := reachable(g, a, b), bfs(a, b); got != want {
				t.Fatalf("trial %d: reachable(%v,%v) = %v, brute force %v", trial, a, b, got, want)
			}
		}
	}
}

// TestCompileRejectsWhatApplyRejects pins Compile's validation to Apply's:
// a delta with a commit-order violation fails both, and a good delta
// compiles to aliases of its own lists.
func TestCompileRejectsWhatApplyRejects(t *testing.T) {
	bad := sg.Delta{Cycle: 2, Edges: []sg.Edge{{From: tx(2, 1), To: tx(2, 0)}}}
	if _, err := sg.Compile(bad); err == nil {
		t.Error("backward edge compiled")
	}
	if err := sg.New().Apply(bad); err == nil {
		t.Error("backward edge applied")
	}
	good := sg.Delta{
		Cycle: 2,
		Nodes: []model.TxID{tx(2, 0), tx(2, 1)},
		Edges: []sg.Edge{
			{From: tx(1, 0), To: tx(2, 0)},
			{From: tx(1, 0), To: tx(2, 1)},
			{From: tx(2, 0), To: tx(2, 1)},
		},
	}
	cd, err := sg.Compile(good)
	if err != nil {
		t.Fatal(err)
	}
	if &cd.Nodes[0] != &good.Nodes[0] || &cd.Edges[0] != &good.Edges[0] {
		t.Error("compiled delta copied the delta's lists, want aliases")
	}
	naive, compiled := sg.New(), sg.New()
	if err := naive.Apply(good); err != nil {
		t.Fatal(err)
	}
	compiled.ApplyCompiled(&cd)
	for _, p := range [][2]model.TxID{{tx(1, 0), tx(2, 1)}, {tx(2, 0), tx(2, 1)}, {tx(2, 1), tx(2, 0)}} {
		if a, b := reachable(naive, p[0], p[1]), reachable(compiled, p[0], p[1]); a != b {
			t.Errorf("reachable(%v, %v): applied %v, compiled %v", p[0], p[1], a, b)
		}
	}
}

// TestCompileRejectsMalformedBlock: a delta that is not its cycle's
// canonical in-edge block is a clean error from both Compile and Apply,
// and Apply stores nothing of it. Each case breaks one rule of a delta
// declaring transactions 3.0 and 3.1.
func TestCompileRejectsMalformedBlock(t *testing.T) {
	for _, tc := range []struct {
		name  string
		edges []sg.Edge
	}{
		{"edge into another cycle", []sg.Edge{{From: tx(1, 0), To: tx(3, 0)}, {From: tx(1, 0), To: tx(4, 0)}}},
		{"edge into an undeclared transaction", []sg.Edge{{From: tx(1, 0), To: tx(3, 0)}, {From: tx(1, 0), To: tx(3, 2)}}},
		{"out-of-order pair", []sg.Edge{{From: tx(1, 0), To: tx(3, 1)}, {From: tx(1, 0), To: tx(3, 0)}}},
		{"out-of-order sources", []sg.Edge{{From: tx(2, 0), To: tx(3, 0)}, {From: tx(1, 0), To: tx(3, 0)}}},
		{"duplicate pair", []sg.Edge{{From: tx(1, 0), To: tx(3, 0)}, {From: tx(1, 0), To: tx(3, 0)}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := sg.Delta{Cycle: 3, Nodes: nodes(3, 2), Edges: tc.edges}
			if _, err := sg.Compile(d); err == nil {
				t.Error("Compile accepted a malformed block")
			}
			g := sg.New()
			if err := g.Apply(d); err == nil {
				t.Error("Apply accepted a malformed block")
			}
			if reachable(g, tc.edges[0].From, tc.edges[0].To) {
				t.Error("a rejected block was stored")
			}
		})
	}
}

// TestApplyCompiledMatchesApplyUnderPrune pins the equivalence the SGT
// method's compiled deltas depend on: under a prune floor, a graph fed ApplyCompiled, one
// fed Apply and the map oracle give the same answer for every pair, and an
// edge whose source is below the floor counts for none of them.
func TestApplyCompiledMatchesApplyUnderPrune(t *testing.T) {
	d := sg.Delta{
		Cycle: 4,
		Nodes: []model.TxID{tx(4, 0), tx(4, 1)},
		Edges: []sg.Edge{
			{From: tx(2, 0), To: tx(4, 0)}, // pruned source: skipped
			{From: tx(3, 0), To: tx(4, 0)},
			{From: tx(4, 0), To: tx(4, 1)},
		},
	}
	cd, err := sg.Compile(d)
	if err != nil {
		t.Fatal(err)
	}
	naive, compiled, oracle := sg.New(), sg.New(), sgtest.New()
	naive.PruneBefore(3)
	compiled.PruneBefore(3)
	oracle.PruneBefore(3)
	if err := naive.Apply(d); err != nil {
		t.Fatal(err)
	}
	compiled.ApplyCompiled(&cd)
	if err := oracle.Apply(d); err != nil {
		t.Fatal(err)
	}
	ids := []model.TxID{tx(2, 0), tx(3, 0), tx(4, 0), tx(4, 1)}
	for _, a := range ids {
		for _, b := range ids {
			want := oracle.Reachable(a, b)
			if got := reachable(naive, a, b); got != want {
				t.Errorf("applied: reachable(%v, %v) = %v, oracle %v", a, b, got, want)
			}
			if got := reachable(compiled, a, b); got != want {
				t.Errorf("compiled: reachable(%v, %v) = %v, oracle %v", a, b, got, want)
			}
		}
	}
	if reachable(compiled, tx(2, 0), tx(4, 1)) {
		t.Error("pruned-source edge counted")
	}
	if !reachable(compiled, tx(3, 0), tx(4, 1)) {
		t.Error("surviving path 3.0 -> 4.0 -> 4.1 lost")
	}
}

func BenchmarkReachable(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	var ids []model.TxID
	for c := model.Cycle(1); c <= 50; c++ {
		for s := uint32(0); s < 10; s++ {
			ids = append(ids, tx(c, s))
		}
	}
	var es []sg.Edge
	for i := 0; i < 5000; i++ {
		a := ids[rng.Intn(len(ids))]
		c := ids[rng.Intn(len(ids))]
		if a.Before(c) {
			es = append(es, sg.Edge{From: a, To: c})
		}
	}
	g := build(b, es...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reachable(g, ids[i%100], ids[len(ids)-1-(i%100)])
	}
}
