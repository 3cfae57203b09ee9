package sg

import (
	"testing"

	"bpush/internal/model"
)

// TestPruneReleasesBlocks: pruning drops each older cycle's block from its
// slot, so the graph stops holding the aired deltas it no longer needs.
// (The search would skip a stale block's edges anyway: their sources are
// all below the floor.)
func TestPruneReleasesBlocks(t *testing.T) {
	g := New()
	for c := model.Cycle(1); c <= 5; c++ {
		d := Delta{
			Cycle: c,
			Nodes: []model.TxID{{Cycle: c}, {Cycle: c, Seq: 1}},
			Edges: []Edge{{From: model.TxID{Cycle: c}, To: model.TxID{Cycle: c, Seq: 1}}},
		}
		if err := g.Apply(d); err != nil {
			t.Fatal(err)
		}
	}
	g.PruneBefore(4)
	for i, b := range g.ring {
		if b.edges == nil {
			continue
		}
		if c := b.edges[0].To.Cycle; c < 4 {
			t.Errorf("slot %d still holds the block of pruned cycle %v", i, c)
		}
	}
	if g.base != 4 || g.end != 6 {
		t.Errorf("window [%v, %v), want [4, 6)", g.base, g.end)
	}
}

// TestEpochWrapClearsMarks: when the search epoch wraps, every stamp is
// cleared, so a target stamped by an earlier search cannot pass for one
// of the current search.
func TestEpochWrapClearsMarks(t *testing.T) {
	a, b, c := model.TxID{Cycle: 1, Seq: 1}, model.TxID{Cycle: 1}, model.TxID{Cycle: 2}
	g := New()
	if err := g.Apply(Delta{Cycle: 1, Nodes: []model.TxID{b, a}}); err != nil {
		t.Fatal(err)
	}
	if err := g.Apply(Delta{Cycle: 2, Nodes: []model.TxID{c}, Edges: []Edge{{From: a, To: c}}}); err != nil {
		t.Fatal(err)
	}
	if !g.ReachableFromAny([]model.TxID{a}, c) { // stamps a as target, epoch 2
		t.Fatal("a does not reach c")
	}
	g.epoch = ^uint32(0) - 1 // the next search wraps back to epoch 2
	if g.ReachableFromAny([]model.TxID{b}, c) {
		t.Error("after the epoch wrapped, b reaches c through a's stale target stamp")
	}
}
