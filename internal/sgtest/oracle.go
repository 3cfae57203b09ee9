// Package sgtest holds the map-backed serialization graph that tests use
// as the oracle for sg.Graph, the per-cycle ring SGT clients run. It is
// the straightforward form of the paper's graph (§3.3): one out-list per
// committed transaction, node-by-node pruning, and a forward search with a
// fresh visited set per query. Only _test.go files import it.
package sgtest

import (
	"fmt"

	"bpush/internal/model"
	"bpush/internal/sg"
)

// Graph is a serialization graph over committed server transactions. The
// zero value is not usable; call New. Graph is not safe for concurrent use.
type Graph struct {
	out     map[model.TxID][]model.TxID
	byCycle map[model.Cycle][]model.TxID
	edges   int
	// pruned is the lowest cycle still retained; nodes of earlier cycles
	// have been discarded and edges into them are treated as dead ends.
	pruned model.Cycle
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		out:     make(map[model.TxID][]model.TxID),
		byCycle: make(map[model.Cycle][]model.TxID),
	}
}

// EnsureNode adds a transaction node if not already present. Nodes from
// already-pruned cycles are ignored (they can never participate in a future
// cycle through an active query).
func (g *Graph) EnsureNode(t model.TxID) {
	if t.Cycle < g.pruned {
		return
	}
	if _, ok := g.out[t]; ok {
		return
	}
	g.out[t] = nil
	g.byCycle[t.Cycle] = append(g.byCycle[t.Cycle], t)
}

// HasNode reports whether t is a retained node.
func (g *Graph) HasNode(t model.TxID) bool {
	_, ok := g.out[t]
	return ok
}

// AddEdge inserts the conflict edge from -> to, creating missing nodes.
// It enforces Claim 1: edges must run forward in commit order. Edges whose
// source lies in a pruned cycle are dropped silently — by Lemma 1 they
// cannot participate in a cycle through any still-active query.
func (g *Graph) AddEdge(from, to model.TxID) error {
	if !from.Before(to) {
		return fmt.Errorf("sgtest: edge %v -> %v violates commit order (Claim 1)", from, to)
	}
	if from.Cycle < g.pruned {
		return nil
	}
	g.EnsureNode(from)
	g.EnsureNode(to)
	for _, t := range g.out[from] {
		if t == to {
			return nil // idempotent
		}
	}
	g.out[from] = append(g.out[from], to)
	g.edges++
	return nil
}

// Apply integrates a broadcast delta edge by edge. Unlike sg.Graph it
// accepts edges in any order and into any cycle.
func (g *Graph) Apply(d sg.Delta) error {
	for _, n := range d.Nodes {
		g.EnsureNode(n)
	}
	for _, e := range d.Edges {
		if err := g.AddEdge(e.From, e.To); err != nil {
			return fmt.Errorf("apply delta for %v: %w", d.Cycle, err)
		}
	}
	return nil
}

// EdgeCount returns the number of retained edges.
func (g *Graph) EdgeCount() int { return g.edges }

// MinRetainedCycle returns the lowest cycle whose subgraph is retained.
func (g *Graph) MinRetainedCycle() model.Cycle { return g.pruned }

// Reachable reports whether there is a directed path (of length >= 0) from
// src to dst. A node unknown to the graph has no outgoing edges.
func (g *Graph) Reachable(src, dst model.TxID) bool {
	return g.ReachableFromAny([]model.TxID{src}, dst)
}

// ReachableFromAny reports whether dst is reachable from any of the source
// transactions — the SGT cycle test, with sg.Graph.ReachableFromAny's
// contract. Because all edges run forward in commit order, the search
// prunes any branch that has passed dst's commit position.
func (g *Graph) ReachableFromAny(sources []model.TxID, dst model.TxID) bool {
	if len(sources) == 0 {
		return false
	}
	// A destination older than every retained cycle cannot be reached:
	// sources at or after the prune floor only have forward edges.
	if dst.Cycle < g.pruned {
		return false
	}
	seen := make(map[model.TxID]struct{}, len(sources))
	stack := make([]model.TxID, 0, len(sources))
	for _, s := range sources {
		if s == dst {
			return true
		}
		if !s.Before(dst) {
			continue // forward edges can never come back to dst
		}
		if _, ok := seen[s]; ok {
			continue
		}
		seen[s] = struct{}{}
		stack = append(stack, s)
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, next := range g.out[n] {
			if next == dst {
				return true
			}
			if !next.Before(dst) {
				continue
			}
			if _, ok := seen[next]; ok {
				continue
			}
			seen[next] = struct{}{}
			stack = append(stack, next)
		}
	}
	return false
}

// PruneBefore discards the subgraphs SG^k for all k < c, node by node.
func (g *Graph) PruneBefore(c model.Cycle) {
	if c <= g.pruned {
		return
	}
	for cy := g.pruned; cy < c; cy++ {
		for _, t := range g.byCycle[cy] {
			g.edges -= len(g.out[t])
			delete(g.out, t)
		}
		delete(g.byCycle, cy)
	}
	g.pruned = c
}

// IsAcyclic verifies that the retained graph has no directed cycle. With
// AddEdge enforcing commit order this always holds; the method exists as an
// invariant check for tests.
func (g *Graph) IsAcyclic() bool {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[model.TxID]int, len(g.out))
	var visit func(t model.TxID) bool
	visit = func(t model.TxID) bool {
		color[t] = gray
		for _, n := range g.out[t] {
			switch color[n] {
			case gray:
				return false
			case white:
				if !visit(n) {
					return false
				}
			}
		}
		color[t] = black
		return true
	}
	for t := range g.out {
		if color[t] == white {
			if !visit(t) {
				return false
			}
		}
	}
	return true
}

// Nodes returns the retained transactions of one cycle subgraph, in no
// particular order. The returned slice is a copy.
func (g *Graph) Nodes(c model.Cycle) []model.TxID {
	src := g.byCycle[c]
	out := make([]model.TxID, len(src))
	copy(out, src)
	return out
}
