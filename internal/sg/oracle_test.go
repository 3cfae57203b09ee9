package sg_test

// The map oracle's own tests. They live beside the ring they check: every
// differential test of sg.Graph (here and in core, broadcast and server)
// trusts sgtest.Graph's answers.

import (
	"math/rand"
	"testing"

	"bpush/internal/model"
	"bpush/internal/sgtest"
)

func mustEdge(t *testing.T, g *sgtest.Graph, from, to model.TxID) {
	t.Helper()
	if err := g.AddEdge(from, to); err != nil {
		t.Fatalf("AddEdge(%v, %v): %v", from, to, err)
	}
}

func TestAddEdgeEnforcesCommitOrder(t *testing.T) {
	g := sgtest.New()
	if err := g.AddEdge(tx(1, 0), tx(1, 1)); err != nil {
		t.Fatalf("forward same-cycle edge rejected: %v", err)
	}
	if err := g.AddEdge(tx(1, 1), tx(2, 0)); err != nil {
		t.Fatalf("forward cross-cycle edge rejected: %v", err)
	}
	if err := g.AddEdge(tx(2, 0), tx(1, 0)); err == nil {
		t.Error("backward edge accepted, want Claim 1 violation error")
	}
	if err := g.AddEdge(tx(1, 0), tx(1, 0)); err == nil {
		t.Error("self edge accepted, want error")
	}
}

func TestAddEdgeIdempotent(t *testing.T) {
	g := sgtest.New()
	for i := 0; i < 3; i++ {
		mustEdge(t, g, tx(1, 0), tx(1, 1))
	}
	if got := g.EdgeCount(); got != 1 {
		t.Errorf("EdgeCount() = %d after duplicate inserts, want 1", got)
	}
}

func TestPruneReleasesEdgeCount(t *testing.T) {
	g := sgtest.New()
	mustEdge(t, g, tx(1, 0), tx(1, 1))
	mustEdge(t, g, tx(1, 1), tx(2, 0))
	before := g.EdgeCount()
	g.PruneBefore(2)
	if g.EdgeCount() >= before {
		t.Errorf("EdgeCount() = %d after prune, want < %d", g.EdgeCount(), before)
	}
	if g.HasNode(tx(1, 0)) || !g.HasNode(tx(2, 0)) || g.MinRetainedCycle() != 2 {
		t.Errorf("after PruneBefore(2): has 1.0 = %v, has 2.0 = %v, floor %v",
			g.HasNode(tx(1, 0)), g.HasNode(tx(2, 0)), g.MinRetainedCycle())
	}
}

func TestIsAcyclicAlwaysHoldsUnderAddEdge(t *testing.T) {
	// Random forward-ordered edges can never form a cycle (Claim 1 makes
	// the commit order a topological order).
	rng := rand.New(rand.NewSource(11))
	g := sgtest.New()
	ids := make([]model.TxID, 0, 200)
	for c := model.Cycle(1); c <= 20; c++ {
		for s := uint32(0); s < 10; s++ {
			ids = append(ids, tx(c, s))
		}
	}
	for i := 0; i < 2000; i++ {
		a := ids[rng.Intn(len(ids))]
		b := ids[rng.Intn(len(ids))]
		if a.Before(b) {
			mustEdge(t, g, a, b)
		}
	}
	if !g.IsAcyclic() {
		t.Error("graph with forward-only edges reported cyclic")
	}
}

func TestNodesReturnsCopy(t *testing.T) {
	g := sgtest.New()
	g.EnsureNode(tx(1, 0))
	g.EnsureNode(tx(1, 1))
	n := g.Nodes(1)
	if len(n) != 2 {
		t.Fatalf("Nodes(1) len = %d, want 2", len(n))
	}
	n[0] = tx(9, 9)
	for _, id := range g.Nodes(1) {
		if id == tx(9, 9) {
			t.Error("Nodes() exposed internal slice")
		}
	}
}
