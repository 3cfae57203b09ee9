// Package sg implements the conflict serialization graph used by the
// serialization-graph-testing (SGT) method of Pitoura & Chrysanthis (§3.3).
//
// Nodes are committed server update transactions. Edges T_i -> T_j record
// that one of T_i's operations precedes and conflicts with one of T_j's.
// Because server transactions commit serially and histories are strict, all
// edges run from earlier to later commits (Claim 1 of the paper): the
// server-side graph is a DAG ordered by commit order.
//
// The graph is kept as the paper splits it, into per-cycle subgraphs SG^k,
// each stored as it arrives on the air: a cycle's delta lists the edges
// into that cycle's transactions sorted by (To, From) (EdgeLess), so it
// already is the cycle's in-edge block, in compressed-sparse-row order.
// Graph is a ring of those blocks. Applying a delta stores one slice
// header, and pruning below the first invalidation cycle of the oldest
// active read-only transaction (the space bound of Lemma 1) drops whole
// blocks.
//
// Read-only transactions are deliberately *not* nodes of this graph. A
// client query R keeps only its outgoing precedence edges (R -> T_f, where
// T_f is the first transaction that overwrote an item R read); by Lemma 1 a
// cycle through R exists exactly when some T_f reaches the last writer T_l
// of an item R is about to read. The client therefore tests cycles with
// ReachableFromAny, which searches backward from T_l through the blocks.
package sg

import (
	"fmt"
	"slices"

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
	// Edges are the in-edges of this cycle's transactions: every To is
	// a declared node ({Cycle, Seq} with Seq < len(Nodes)), and the list
	// is strictly increasing in EdgeLess order (so free of duplicates).
	// Apply and Compile reject any other list.
	Edges []Edge
}

// CompiledDelta is a Delta whose edge block has been checked exactly
// once, for sharing across many client graphs: consumers store it with
// ApplyCompiled, which skips the check Apply repeats per client. It is
// immutable; any number of graphs may consume it concurrently. Compile
// neither copies nor regroups, because the producer's own (To, From)
// order already is the in-edge block a Graph searches: Cycle, Nodes and
// Edges are the input Delta's. A becast keeps its compiled delta by value
// (broadcast.Bcast.PrimeIndex), so compiling allocates nothing.
type CompiledDelta struct {
	Cycle model.Cycle
	Nodes []model.TxID
	Edges []Edge
}

// Compile validates a broadcast delta so it can be integrated into any
// number of client graphs with ApplyCompiled, paying the check exactly
// once instead of once per client. The compiled form aliases the delta's
// own slices.
func Compile(d Delta) (CompiledDelta, error) {
	if err := check(d); err != nil {
		return CompiledDelta{}, err
	}
	return CompiledDelta{Cycle: d.Cycle, Nodes: d.Nodes, Edges: d.Edges}, nil
}

// check is the one O(E) pass that makes a delta a well-formed in-edge
// block: every edge runs forward in commit order (Claim 1), lands on a
// transaction the delta declares (of its cycle, Seq below len(Nodes), as
// the server numbers commits), and strictly follows its predecessor in
// EdgeLess order. Declared targets bound a graph's marks by the delta.
func check(d Delta) error {
	for i, e := range d.Edges {
		if !e.From.Before(e.To) {
			return fmt.Errorf("sg: edge %v -> %v violates commit order (Claim 1)", e.From, e.To)
		}
		if e.To.Cycle != d.Cycle {
			return fmt.Errorf("sg: edge %v -> %v targets another cycle than the delta's %v", e.From, e.To, d.Cycle)
		}
		if int(e.To.Seq) >= len(d.Nodes) {
			return fmt.Errorf("sg: edge %v -> %v targets a transaction beyond the %d the delta declares", e.From, e.To, len(d.Nodes))
		}
		if i > 0 && !EdgeLess(d.Edges[i-1], e) {
			return fmt.Errorf("sg: edge %v -> %v out of (To, From) order or duplicated", e.From, e.To)
		}
	}
	return nil
}

// Graph is a client's serialization graph: a ring of per-cycle in-edge
// blocks spanning the cycles from the prune floor to the newest delta
// applied. A missed or skipped cycle leaves an empty block. The zero value
// is an empty graph. Graph is not safe for concurrent use, not even
// for concurrent ReachableFromAny calls, which share the graph's search
// scratch; each client owns its local copy, matching the paper's model.
type Graph struct {
	// ring holds cycle c's block at index c & (len(ring)-1); len(ring)
	// is zero or a power of two larger than end-base.
	ring []block
	// base is the prune floor, the lowest retained cycle; end is one
	// past the newest applied cycle (end >= base). Blocks outside
	// [base, end) are empty.
	base, end model.Cycle
	// epoch stamps one search's marks: a node marked epoch was visited,
	// one marked epoch+1 is a target. Older stamps are stale.
	epoch uint32
	stack []model.TxID // search scratch, reused across searches
}

// block is one cycle's slot in the ring.
type block struct {
	// edges is the cycle's delta, aliased: the in-edges of its
	// transactions, sorted by (To, From).
	edges []Edge
	// marks are the search stamps of the cycle's transactions, indexed
	// by Seq. They keep their capacity when the slot is reused.
	marks []uint32
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// Apply checks a broadcast delta (see Compile) and stores it as its
// cycle's block. The graph keeps the delta's edge slice, which must not
// be modified afterwards.
func (g *Graph) Apply(d Delta) error {
	if err := check(d); err != nil {
		return fmt.Errorf("apply delta for %v: %w", d.Cycle, err)
	}
	g.store(d.Cycle, d.Nodes, d.Edges)
	return nil
}

// ApplyCompiled stores a delta Compile already checked. It is equivalent
// to Apply of the Delta cd was compiled from.
func (g *Graph) ApplyCompiled(cd *CompiledDelta) { g.store(cd.Cycle, cd.Nodes, cd.Edges) }

// store makes edges cycle c's block. A delta below the prune floor is
// dropped whole: its edges' sources are older still. Re-applying a cycle
// replaces its block.
func (g *Graph) store(c model.Cycle, nodes []model.TxID, edges []Edge) {
	if c < g.base {
		return
	}
	if c-g.base >= model.Cycle(len(g.ring)) {
		g.widen(c)
	}
	b := &g.ring[g.slot(c)]
	b.edges = edges
	if len(b.marks) < len(nodes) {
		b.marks = grown(b.marks, len(nodes))
	}
	if c >= g.end {
		g.end = c + 1
	}
}

// widen doubles the ring until it spans the cycles base through c, moving
// the retained blocks to their new slots.
func (g *Graph) widen(c model.Cycle) {
	n := max(8, 2*len(g.ring))
	for model.Cycle(n) <= c-g.base {
		n *= 2
	}
	old := g.ring
	g.ring = grown([]block(nil), n)
	for cy := g.base; cy < g.end; cy++ {
		g.ring[g.slot(cy)] = old[int(uint64(cy)&uint64(len(old)-1))]
	}
}

func (g *Graph) slot(c model.Cycle) int { return int(uint64(c) & uint64(len(g.ring)-1)) }

// PruneBefore discards the subgraphs SG^k for all k < c, the space
// optimization of §3.3: a client only needs subgraphs from the cycle at
// which the first item read by its oldest active query was overwritten.
// Each cycle's block drops at once. Edges from pruned transactions into
// retained blocks stay stored and are skipped by the search.
func (g *Graph) PruneBefore(c model.Cycle) {
	if c <= g.base {
		return
	}
	for cy := g.base; cy < c && cy < g.end; cy++ {
		g.ring[g.slot(cy)].edges = nil
	}
	g.base = c
	g.end = max(g.end, c)
}

// ReachableFromAny reports whether dst is reachable, by a path of length
// zero or more through retained transactions, from any of the targets.
// This is the client-side SGT cycle test: a read of an item last written
// by dst closes a cycle through the query R iff dst is reachable from R's
// precedence targets (Claims 2 and 3 justify using only the first-writer
// edges as sources). Targets and path nodes older than the prune floor
// have no retained out-edges.
//
// The search runs backward from dst. A transaction's in-edges are one run
// of its cycle's block, found by binary search on To. Because all edges
// run forward in commit order, a source that committed before the
// earliest retained target cannot lie on a path from one, and is skipped;
// that covers every source below the prune floor.
//
//lint:hotpath every SGT read runs this cycle test
func (g *Graph) ReachableFromAny(targets []model.TxID, dst model.TxID) bool {
	if len(targets) == 0 || dst.Cycle < g.base {
		return false
	}
	first := dst // becomes the earliest retained target before dst
	for _, t := range targets {
		if t == dst {
			return true
		}
		if t.Cycle >= g.base && t.Before(first) {
			first = t
		}
	}
	if first == dst || dst.Cycle >= g.end {
		return false // no retained target before dst, or nothing into dst
	}
	g.epoch += 2
	if g.epoch == 0 {
		for i := range g.ring {
			clear(g.ring[i].marks)
		}
		g.epoch = 2
	}
	seen, hit := g.epoch, g.epoch+1
	for _, t := range targets {
		if t.Cycle >= g.base && t.Before(dst) {
			if m := g.mark(t); m != nil {
				*m = hit
			}
		}
	}
	g.stack = grown(g.stack, 1)
	g.stack[0] = dst
	for sp := 1; sp > 0; {
		sp--
		for _, e := range g.inEdges(g.stack[sp]) {
			f := e.From
			if f.Before(first) {
				continue // first is retained, so this skips pruned sources too
			}
			m := g.mark(f) // nil: undeclared by its delta, so without in-edges
			if (m == nil && slices.Contains(targets, f)) || (m != nil && *m == hit) {
				return true
			}
			if m == nil || *m == seen {
				continue
			}
			*m = seen
			if sp == len(g.stack) {
				g.stack = grown(g.stack, sp+1)
			}
			g.stack[sp] = f
			sp++
		}
	}
	return false
}

// inEdges returns the run of n's cycle block whose To is n; n's cycle is
// retained.
func (g *Graph) inEdges(n model.TxID) []Edge {
	es := g.ring[g.slot(n.Cycle)].edges
	lo, hi := 0, len(es)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if es[m].To.Seq < n.Seq {
			lo = m + 1
		} else {
			hi = m
		}
	}
	end := lo
	for end < len(es) && es[end].To.Seq == n.Seq {
		end++
	}
	return es[lo:end]
}

// mark returns t's search stamp, or nil for a transaction its cycle's
// slot has no mark for (one its delta did not declare, or of a cycle never
// heard); t's cycle is retained.
func (g *Graph) mark(t model.TxID) *uint32 {
	b := &g.ring[g.slot(t.Cycle)]
	if int(t.Seq) >= len(b.marks) {
		return nil
	}
	return &b.marks[t.Seq]
}

// grown returns s with length at least n, keeping its contents. It reuses
// the backing array when that is large enough and otherwise at least
// doubles it, so the graph's scratch reaches its high-water mark in a few
// steps and then stops allocating.
func grown[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:cap(s)]
	}
	//lint:allow hotalloc owner-retained graph scratch (ring, marks, search stack) grows to its high-water mark, at least doubling, and is then reused
	out := make([]T, max(n, 2*cap(s)))
	copy(out, s)
	return out
}
