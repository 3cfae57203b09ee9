// Package sg implements the conflict serialization graph used by the
// serialization-graph-testing (SGT) method of Pitoura & Chrysanthis (§3.3).
//
// Nodes are committed server update transactions. Edges T_i -> T_j record
// that one of T_i's operations precedes and conflicts with one of T_j's.
// Because server transactions commit serially and histories are strict, all
// edges run from earlier to later commits (Claim 1 of the paper): the
// server-side graph is a DAG ordered by commit order. The graph is
// organized as per-cycle subgraphs SG^i so that clients can prune everything
// older than the first invalidation cycle of their oldest active read-only
// transaction (the space bound of Lemma 1).
//
// Read-only transactions are deliberately *not* nodes of this graph. A
// client query R keeps only its outgoing precedence edges (R -> T_f, where
// T_f is the first transaction that overwrote an item R read); by Lemma 1 a
// cycle through R exists exactly when some T_f reaches the last writer T_l
// of an item R is about to read. The client therefore tests cycles with
// ReachableFromAny rather than materializing R in the graph.
package sg

import (
	"fmt"
	"sort"

	"bpush/internal/model"
)

// Edge is a directed conflict edge between two committed server
// transactions.
type Edge struct {
	From model.TxID
	To   model.TxID
}

// EdgeLess is the canonical broadcast order of conflict edges: by target
// transaction first, then by source. Every producer of a cycle log sorts
// its edge list with this comparator — the commit pipeline and the
// server tests' serial oracle both flow through it, so edge order can
// never depend on the execution path that discovered the edges.
func EdgeLess(a, b Edge) bool {
	if a.To != b.To {
		return a.To.Before(b.To)
	}
	return a.From.Before(b.From)
}

// SortEdges sorts es in place into the canonical (To, From) order.
func SortEdges(es []Edge) {
	sort.Slice(es, func(i, j int) bool { return EdgeLess(es[i], es[j]) })
}

// Delta is the per-cycle difference of the serialization graph that the
// server broadcasts at the beginning of each becast: the transactions
// committed during the previous cycle and, for each, the edges connecting
// it to previously committed transactions (and to earlier transactions of
// the same cycle).
type Delta struct {
	// Cycle is the broadcast cycle whose becast carries this delta; the
	// nodes listed committed during cycle Cycle-1 and their values appear
	// in the becast of Cycle.
	Cycle model.Cycle
	Nodes []model.TxID
	Edges []Edge
}

// CompiledDelta is a Delta whose every edge has had commit order
// (Claim 1) checked exactly once, for sharing across many client graphs:
// consumers merge it with ApplyCompiled, which skips the per-edge
// validation Apply repeats per client. A CompiledDelta is immutable after
// Compile; any number of graphs may consume it concurrently.
//
// Compile deliberately does NOT regroup, sort, or deduplicate the edge
// list: measured server deltas average hundreds of edges with nearly as
// many distinct sources (~1.8 targets per source), so any grouping
// structure — hash maps over 24-byte TxID keys, reflect-driven stable
// sorts, O(edges × sources) scans — costs the producer far more per cycle
// than it saves any consumer. Nodes and Edges alias the input Delta.
type CompiledDelta struct {
	// Cycle mirrors Delta.Cycle.
	Cycle model.Cycle
	// Nodes aliases the delta's declared node list. Edge endpoints are
	// NOT merged in: Apply only materializes an endpoint when its edge
	// survives the consumer's prune floor, so endpoint insertion stays
	// with the edge walk.
	Nodes []model.TxID
	// Edges aliases the delta's edge list, in delta order — the order
	// out-list construction preserves. Every edge satisfies
	// From.Before(To). Duplicates, if the delta carries any, remain; they
	// collapse through the same out-list scan AddEdge performs.
	Edges []Edge
}

// Compile validates a broadcast delta so it can be integrated into any
// number of client graphs with ApplyCompiled, paying the per-edge
// commit-order check exactly once instead of once per client. It
// allocates nothing beyond the descriptor: the compiled form aliases the
// delta's own slices.
func Compile(d Delta) (*CompiledDelta, error) {
	for _, e := range d.Edges {
		if !e.From.Before(e.To) {
			return nil, fmt.Errorf("sg: edge %v -> %v violates commit order (Claim 1)", e.From, e.To)
		}
	}
	//lint:allow hotalloc the compiled delta is the cycle's retained product, shared by every consumer of the index
	return &CompiledDelta{Cycle: d.Cycle, Nodes: d.Nodes, Edges: d.Edges}, nil
}

// Graph is a serialization graph over committed server transactions. The
// zero value is not usable; call New. Graph is not safe for concurrent use;
// each client owns its local copy, matching the paper's model.
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
		return fmt.Errorf("sg: edge %v -> %v violates commit order (Claim 1)", from, to)
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

// Apply integrates a broadcast delta into the local graph.
func (g *Graph) Apply(d Delta) error {
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

// ApplyCompiled integrates a pre-validated delta. It is equivalent to
// Apply(d) for the Delta cd was compiled from — same retained nodes, same
// out-lists, same edge count — but skips the per-edge commit-order check
// Compile already performed. The graph still applies its own prune floor:
// edges from pruned sources are dropped without touching either endpoint,
// exactly as AddEdge would have dropped them.
func (g *Graph) ApplyCompiled(cd *CompiledDelta) {
	for _, n := range cd.Nodes {
		g.EnsureNode(n)
	}
	for _, e := range cd.Edges {
		if e.From.Cycle < g.pruned {
			continue // AddEdge's silent drop: Lemma 1 makes these dead
		}
		g.EnsureNode(e.From)
		g.EnsureNode(e.To)
		dup := false
		for _, t := range g.out[e.From] {
			if t == e.To {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		//lint:allow hotalloc adjacency growth is the algorithm: the persistent graph is bounded by Lemma 1 pruning, and capacity is reclaimed there
		g.out[e.From] = append(g.out[e.From], e.To)
		g.edges++
	}
}

// NodeCount returns the number of retained nodes.
func (g *Graph) NodeCount() int { return len(g.out) }

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
// transactions. This is the client-side SGT cycle test: a read of an item
// last written by dst closes a cycle through the query R iff dst is
// reachable from R's precedence targets (Claims 2 and 3 justify using only
// the first-writer edges as sources).
//
// Because all edges run forward in commit order, the search prunes any
// branch that has passed dst's commit position.
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

// PruneBefore discards the subgraphs SG^k for all k < c, the space
// optimization of §3.3: a client only needs subgraphs from the cycle at
// which the first item read by its oldest active query was overwritten.
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
	// Edges from retained nodes into pruned nodes are harmless for
	// reachability (the DFS treats missing nodes as sinks, and by Claim 1
	// retained->pruned edges cannot exist anyway), so only the forward
	// adjacency needed fixing.
	g.pruned = c
}

// IsAcyclic verifies that the retained graph has no directed cycle. With
// AddEdge enforcing commit order this always holds; the method exists as an
// invariant check for tests and for integrating externally built deltas.
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
