package server

import (
	"fmt"
	"slices"

	"bpush/internal/model"
	"bpush/internal/obs"
	"bpush/internal/pool"
	"bpush/internal/sg"
)

// This file implements the producer's commit pipeline: the batched,
// multi-core replacement for the monolithic serial commit loop (kept in
// the package's tests as the differential oracle), after the
// deterministic-MVCC design of BOHM ("Rethinking serializable multiversion
// concurrency control"). A cycle's update transactions are treated as one
// batch and pushed through three phases:
//
//   - plan: a single serial pass assigns TxIDs in input order, validates
//     every operation, and rewrites the batch item-major — for each
//     touched item, the exact subsequence of batch operations on it, in
//     commit order, together with the item's pre-batch writer and reader
//     set. After planning, no phase ever consults shared mutable state.
//   - place: items are partitioned contiguously across workers; each
//     worker appends one version placeholder per written item of its
//     partition (the becast carries only the cycle's final value, so a
//     batch coalesces to a single version) and derives the item's
//     first/last/all-writer entries. No locks: distinct workers own
//     disjoint items.
//   - execute: the same partitioning; each worker replays every item's
//     operation timeline against the planned pre-state, fills the
//     placeholder value, computes the item's surviving reader set, and
//     emits the conflict edges a strict serial history would have
//     produced, sorted per partition in the canonical (To, From) order.
//
// A final serial merge concatenates the sorted partition edge lists
// (k-way, deduplicating equal heads), installs the per-item maps, and
// advances the cycle. Why the result is byte-identical to the serial loop
// at every worker count: per-item operation subsequences are the same as
// in serial execution, items never interact (an operation touches exactly
// one item's version chain and reader set), every conflict edge points at
// its executing transaction so the deduplicated edge set has one canonical
// (To, From) order, and the k-way merge re-establishes that global order
// whatever the partition boundaries were — partitioning affects
// scheduling only, never output.

// plannedOp is one batch operation rewritten item-major: the committing
// transaction's sequence within the cycle, and whether the operation
// writes. Operations of one item appear in commit order (the planner
// walks transactions in input order), which is all execute needs to
// replay the item's serial timeline.
type plannedOp struct {
	seq   uint32
	write bool
}

// itemPlan is the per-item work order the planner hands to the parallel
// phases, plus the slots those phases fill in. One itemPlan is owned by
// exactly one worker per phase, so none of its fields need locks.
type itemPlan struct {
	item   model.ItemID
	ops    int // operations touching the item
	writes int // of which writes
	off    int // offset of the item's timeline in the op arena
	filled int // planner-internal fill cursor

	// Pre-batch state, captured serially by the planner: the writer of
	// the item's current version and the readers recorded since its last
	// write. preReaders aliases the item's reader slice, which only the
	// worker executing this plan touches: execute truncates and refills
	// its backing array in place and installs the surviving set.
	preWriter  model.TxID
	preReaders []model.TxID

	// Place outputs (writes > 0 only).
	firstW, lastW model.TxID
	allW          []model.TxID
}

// CommitAndAdvance executes the given update transactions as if they
// committed serially during the current cycle (their order is the commit
// order) and advances to the next cycle. It returns the CycleLog from
// which the next becast is assembled.
//
// Execution builds conflict edges exactly as a strict history would:
//
//   - a read of x adds a wr edge lastWriter(x) -> T,
//   - a write of x adds rw edges reader -> T for every transaction that
//     read x since its last write, and a ww edge lastWriter(x) -> T,
//
// always skipping the initial-load pseudo-transaction, which is not a node
// of the broadcast graph.
//
// The batch runs through the plan/place/execute pipeline on
// Config.Workers workers (0 means 1). The returned CycleLog is identical
// — byte for byte, trace events included — at every worker count, and
// equal to the log of the serial commit loop the server's tests keep as
// their differential oracle.
func (s *Server) CommitAndAdvance(txs []model.ServerTx) (*CycleLog, error) {
	workers := max(s.cfg.Workers, 1)
	next := s.cycle + 1

	// ---- plan (serial) ----
	plans, arena, err := s.plan(txs, next)
	if err != nil {
		return nil, err
	}
	written := 0
	for i := range plans {
		if plans[i].writes > 0 {
			written++
		}
	}
	s.recordPhase(next, 0, obs.PhasePlan, int64(len(txs)), int64(len(plans)))

	// Contiguous partitions over the plans (first-touch order, a pure
	// function of the batch): partition p owns
	// plans[p*len/parts : (p+1)*len/parts]. Partition boundaries affect
	// only scheduling, never output order — the merge below consumes the
	// partitions' edge lists in a global (To, From) order.
	parts := workers
	if parts > len(plans) {
		parts = len(plans)
	}
	if parts < 1 {
		parts = 1
	}

	// ---- place + execute (parallel, no locks: disjoint items per worker) ----
	// The two phases are logically distinct (placement installs version
	// placeholders and writer bookkeeping; execution replays timelines and
	// emits edges), but items never depend on each other across them, so
	// one parallel pass runs both back-to-back per item: no barrier, one
	// worker dispatch instead of two, and each itemPlan is hot in cache
	// when execute reaches it.
	if len(s.edgeScratch) < parts {
		s.edgeScratch = append(s.edgeScratch, make([]partitionScratch, parts-len(s.edgeScratch))...)
	}
	partEdges := make([][]sg.Edge, parts)
	if err := pool.For(workers, parts, func(p int) error {
		lo, hi := p*len(plans)/parts, (p+1)*len(plans)/parts
		// Presize the edge buffer — one potential writer edge per
		// operation, and for written items the pre-batch and within-batch
		// readers the writes flush (an unwritten item's readers never
		// become edges; a written item's flushed readers are bounded by its
		// pre-batch readers plus its batch reads, though re-reads after a
		// write can still exceed the estimate, in which case append just
		// grows) — plus the partition's writer-ID arena, which is exact.
		est, sumW := 0, 0
		for i := lo; i < hi; i++ {
			est += plans[i].ops
			if plans[i].writes > 0 {
				est += len(plans[i].preReaders) + plans[i].ops
			}
			sumW += plans[i].writes
		}
		ps := &s.edgeScratch[p]
		if cap(ps.raw) < est {
			ps.raw = make([]sg.Edge, 0, est)
		}
		edges := ps.raw[:0]
		wArena := make([]model.TxID, 0, sumW)
		for i := lo; i < hi; i++ {
			wArena = s.placeItem(&plans[i], arena, next, wArena)
			edges = s.executeItem(&plans[i], arena, next, edges)
		}
		ps.raw = edges // keep any growth for the next batch
		partEdges[p] = sortDedupPartition(edges, len(txs), ps)
		return nil
	}); err != nil {
		return nil, err
	}
	s.recordPhase(next, 1, obs.PhasePlace, int64(written), 0)

	// ---- merge (serial) ----
	log := &CycleLog{
		Cycle:        next,
		FirstWriter:  make(map[model.ItemID]model.TxID, written),
		LastWriter:   make(map[model.ItemID]model.TxID, written),
		AllWriters:   make(map[model.ItemID][]model.TxID, written),
		Delta:        sg.Delta{Cycle: next},
		NumCommitted: len(txs),
	}
	if len(txs) > 0 {
		log.Delta.Nodes = make([]model.TxID, 0, len(txs))
	}
	for seq := range txs {
		log.Delta.Nodes = append(log.Delta.Nodes, model.TxID{Cycle: next, Seq: uint32(seq)})
	}
	log.Delta.Edges = mergeEdges(partEdges)
	updated := make([]model.ItemID, 0, written)
	for i := range plans {
		pl := &plans[i]
		if pl.writes > 0 {
			log.FirstWriter[pl.item] = pl.firstW
			log.LastWriter[pl.item] = pl.lastW
			log.AllWriters[pl.item] = pl.allW
			updated = append(updated, pl.item)
		}
	}
	// Written items in ascending order — exactly det.SortedKeys(FirstWriter),
	// built without re-walking the map.
	slices.Sort(updated)
	log.Updated = updated
	s.recordPhase(next, 2, obs.PhaseExecute, int64(len(log.Delta.Edges)), 0)
	s.recordDelta(log)
	s.trimVersions(next)
	s.cycle = next
	return log, nil
}

// plan validates the batch and rewrites it item-major. It is the only
// pipeline phase that reads shared server state (version chains, reader
// sets), and it runs strictly serially. On a validation error nothing has
// been mutated; the scratch table is re-zeroed on every exit.
func (s *Server) plan(txs []model.ServerTx, next model.Cycle) (plans []itemPlan, arena []plannedOp, err error) {
	if len(s.planScratch) < s.cfg.DBSize+1 {
		s.planScratch = make([]int32, s.cfg.DBSize+1)
	}
	scratch := s.planScratch
	plans = s.plansBuf[:0]
	defer func() {
		for i := range plans {
			scratch[plans[i].item] = 0
		}
		s.plansBuf = plans // keep the grown capacity for the next batch
	}()

	// Pass 1: validate every operation and count, per item, how many
	// operations (and writes) the batch performs on it. Read-before-write
	// is checked by scanning the transaction's earlier operations — batch
	// transactions are short, so this beats a per-transaction map.
	totalOps := 0
	for seq, tx := range txs {
		id := model.TxID{Cycle: next, Seq: uint32(seq)}
		for j, op := range tx.Ops {
			if cerr := s.checkItem(op.Item); cerr != nil {
				return plans, nil, fmt.Errorf("tx %v: %w", id, cerr)
			}
			switch op.Kind {
			case model.OpRead:
			case model.OpWrite:
				read := false
				for _, prior := range tx.Ops[:j] {
					if prior.Kind == model.OpRead && prior.Item == op.Item {
						read = true
						break
					}
				}
				if !read {
					return plans, nil, fmt.Errorf("tx %v writes %v without reading it first (strictness assumption)", id, op.Item)
				}
			default:
				return plans, nil, fmt.Errorf("tx %v: invalid op kind %v", id, op.Kind)
			}
			pi := scratch[op.Item]
			if pi == 0 {
				st := &s.items[op.Item-1]
				plans = append(plans, itemPlan{
					item:       op.Item,
					preWriter:  st.versions[len(st.versions)-1].Writer,
					preReaders: st.readers,
				})
				pi = int32(len(plans))
				scratch[op.Item] = pi
			}
			pl := &plans[pi-1]
			pl.ops++
			if op.Kind == model.OpWrite {
				pl.writes++
			}
			totalOps++
		}
	}

	// Lay the per-item timelines out in one packed arena. Plans stay in
	// first-touch order — itself a pure function of the batch, so the
	// partitioning is deterministic; the merge phase re-establishes the
	// canonical global order regardless. Pass 2 overwrites every arena
	// slot, so the reused buffer never leaks a previous batch's entries.
	if cap(s.arenaBuf) < totalOps {
		s.arenaBuf = make([]plannedOp, totalOps)
	}
	arena = s.arenaBuf[:totalOps]
	off := 0
	for i := range plans {
		plans[i].off = off
		off += plans[i].ops
	}

	// Pass 2: fill the arena. Walking transactions in input order means
	// each item's slice ends up in commit order.
	for seq, tx := range txs {
		for _, op := range tx.Ops {
			pl := &plans[scratch[op.Item]-1]
			arena[pl.off+pl.filled] = plannedOp{seq: uint32(seq), write: op.Kind == model.OpWrite}
			pl.filled++
		}
	}
	return plans, arena, nil
}

// placeItem installs the version placeholder and writer bookkeeping for
// one written item. The batch coalesces to exactly one new version (the
// becast carries only the cycle's final value), written by the item's
// last writer; its value is filled in by execute. Items without writes
// need no placement. The item's writer list is carved out of wArena, the
// partition's shared writer-ID arena (capacity ≥ the partition's write
// count, so the carved slices never move); the extended arena is
// returned.
func (s *Server) placeItem(pl *itemPlan, arena []plannedOp, next model.Cycle, wArena []model.TxID) []model.TxID {
	if pl.writes == 0 {
		return wArena
	}
	start := len(wArena)
	for _, op := range arena[pl.off : pl.off+pl.ops] {
		if !op.write {
			continue
		}
		id := model.TxID{Cycle: next, Seq: op.seq}
		if len(wArena) == start {
			pl.firstW = id
		}
		// A transaction writing the same item twice is still one writer;
		// per-item writes arrive in commit order, so consecutive
		// deduplication is full deduplication.
		if n := len(wArena); n == start || wArena[n-1] != id {
			wArena = append(wArena, id)
		}
		pl.lastW = id
	}
	// Full-capacity slice: a later append to allW would copy, never
	// clobber the next item's writers.
	pl.allW = wArena[start:len(wArena):len(wArena)]
	st := &s.items[pl.item-1]
	st.writeCount += int64(pl.writes)
	// The pre-batch current version always belongs to an earlier cycle,
	// so the placeholder is always a fresh append (same-cycle coalescing
	// happens inside the batch, above).
	st.versions = append(st.versions, model.Version{Cycle: next, Writer: pl.lastW})
	return wArena
}

// executeItem replays one item's operation timeline against its planned
// pre-state, emitting exactly the conflict edges the serial loop's
// applyRead/applyWrite would have recorded for it, filling the placed
// version's value, and installing the reader set that survives the batch.
// It appends edges to edgeBuf and returns the extended buffer.
func (s *Server) executeItem(pl *itemPlan, arena []plannedOp, next model.Cycle, edgeBuf []sg.Edge) []sg.Edge {
	curWriter := pl.preWriter
	readers := pl.preReaders
	for _, op := range arena[pl.off : pl.off+pl.ops] {
		id := model.TxID{Cycle: next, Seq: op.seq}
		if !curWriter.IsZero() && curWriter != id {
			// wr (on a read) or ww (on a write) edge from the item's
			// current writer, skipping the initial-load pseudo-tx.
			edgeBuf = append(edgeBuf, sg.Edge{From: curWriter, To: id})
		}
		if op.write {
			for _, r := range readers {
				if r != id && !r.IsZero() {
					edgeBuf = append(edgeBuf, sg.Edge{From: r, To: id})
				}
			}
			// Every reader is an edge now; keep the backing array.
			readers = readers[:0]
			curWriter = id
		} else {
			seen := false
			for _, r := range readers {
				if r == id {
					seen = true
					break
				}
			}
			if !seen {
				readers = append(readers, id)
			}
		}
	}
	st := &s.items[pl.item-1]
	st.readers = readers
	if pl.writes > 0 {
		st.versions[len(st.versions)-1].Value = initialValue(pl.item) + model.Value(st.writeCount)
	}
	return edgeBuf
}

// partitionScratch is one partition's reusable edge workspace: raw
// collects the edges execute emits, sorted is the counting sort's target,
// counts and next are its run starts and fill cursors, and keys holds one
// long run's packed From keys while it sorts. All of it is server-owned
// scratch — its contents are dead once the merge has consumed them, so
// mergeEdges copies before anything escapes into the CycleLog.
type partitionScratch struct {
	raw    []sg.Edge
	sorted []sg.Edge
	counts []int32
	next   []int32
	keys   []uint64
}

// sortDedupPartition sorts one partition's edges into the canonical
// (To, From) order and drops duplicates. Every edge's To is a transaction
// of the committing batch (To.Cycle is the new cycle for all of them), so
// ordering by To reduces to ordering by To.Seq in [0, ntx) — a counting
// sort, not a comparison sort. Within one To run (the edges one
// transaction collected through this partition's items) the entries are
// ordered by From. The result aliases ps's scratch.
func sortDedupPartition(edges []sg.Edge, ntx int, ps *partitionScratch) []sg.Edge {
	if len(edges) < 2 {
		return edges
	}
	if cap(ps.counts) < ntx+1 {
		ps.counts = make([]int32, ntx+1)
		ps.next = make([]int32, ntx)
	}
	// counts[s+1] accumulates the size of To.Seq==s's run, so the prefix
	// sum leaves counts[s] = start of run s and counts[ntx] = len(edges).
	counts := ps.counts[:ntx+1]
	clear(counts)
	for _, e := range edges {
		counts[e.To.Seq+1]++
	}
	for s := 1; s <= ntx; s++ {
		counts[s] += counts[s-1]
	}
	if cap(ps.sorted) < len(edges) {
		ps.sorted = make([]sg.Edge, len(edges))
	}
	out := ps.sorted[:len(edges)]
	next := ps.next[:ntx]
	copy(next, counts[:ntx])
	for _, e := range edges {
		out[next[e.To.Seq]] = e
		next[e.To.Seq]++
	}
	for s := 0; s < ntx; s++ {
		run := out[counts[s]:counts[s+1]]
		if len(run) < 2 {
			continue
		}
		if len(run) <= 24 {
			// Insertion sort: runs are almost always a handful of edges.
			for i := 1; i < len(run); i++ {
				for j := i; j > 0 && run[j].From.Before(run[j-1].From); j-- {
					run[j], run[j-1] = run[j-1], run[j]
				}
			}
		} else if !sortRunPacked(run, ps) {
			slices.SortFunc(run, func(a, b sg.Edge) int {
				if a.From.Before(b.From) {
					return -1
				}
				if b.From.Before(a.From) {
					return 1
				}
				return 0
			})
		}
	}
	// Deduplicate in place: one transaction reaching the same predecessor
	// through several of this partition's items is now adjacent.
	dedup := out[:1]
	for _, e := range out[1:] {
		if dedup[len(dedup)-1] != e {
			dedup = append(dedup, e)
		}
	}
	return dedup
}

// sortRunPacked sorts one To run by From as packed uint64 keys
// (From.Cycle<<32 | From.Seq), which order exactly as TxID.Before does
// while every From.Cycle is below 2³², and writes the sorted edges back.
// It reports false, leaving run as it was, when a From.Cycle does not fit
// in 32 bits; the caller then sorts with the TxID comparator.
func sortRunPacked(run []sg.Edge, ps *partitionScratch) bool {
	keys := ps.keys[:0]
	for _, e := range run {
		if e.From.Cycle>>32 != 0 {
			return false
		}
		keys = append(keys, uint64(e.From.Cycle)<<32|uint64(e.From.Seq))
	}
	ps.keys = keys // keep any growth for the next run
	slices.Sort(keys)
	to := run[0].To
	for i, k := range keys {
		run[i] = sg.Edge{From: model.TxID{Cycle: model.Cycle(k >> 32), Seq: uint32(k)}, To: to}
	}
	return true
}

// mergeEdges k-way-merges the partitions' sorted edge lists into the
// global canonical (To, From) order, dropping duplicates (one transaction
// reaching the same predecessor through items of different partitions).
// After deduplication every (To, From) pair is unique, so the merged list
// equals what sorting the serial loop's per-transaction deduplicated
// edges produces. Returns nil (not an empty slice) for an edgeless cycle,
// like the serial loop did.
func mergeEdges(parts [][]sg.Edge) []sg.Edge {
	lists := make([][]sg.Edge, 0, len(parts))
	for _, es := range parts {
		if len(es) > 0 {
			lists = append(lists, es)
		}
	}
	if len(lists) == 0 {
		return nil
	}
	if len(lists) == 1 {
		// The partition lists alias server scratch; the log outlives the
		// commit, so a lone survivor is copied out at its exact size.
		return append(make([]sg.Edge, 0, len(lists[0])), lists[0]...)
	}
	// Pairwise merge tree: log2(k) two-way passes beat a k-way head scan.
	// Duplicates between the two halves of a merge collapse at that level;
	// what remains is unique, so the root list is fully deduplicated.
	for len(lists) > 1 {
		mergedLists := lists[:0]
		for i := 0; i < len(lists); i += 2 {
			if i+1 == len(lists) {
				mergedLists = append(mergedLists, lists[i])
				break
			}
			mergedLists = append(mergedLists, merge2(lists[i], lists[i+1]))
		}
		lists = mergedLists
	}
	return lists[0]
}

// merge2 merges two sorted, internally deduplicated edge lists into one,
// dropping pairs that appear in both.
func merge2(a, b []sg.Edge) []sg.Edge {
	out := make([]sg.Edge, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case sg.EdgeLess(a[i], b[j]):
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// recordPhase emits one producer-phase event. Every field is invariant
// under the worker count — phase events carry batch-derived quantities
// (transactions, touched items, written items, deduplicated edges), never
// partition or scheduling facts — so traces stay byte-identical across
// worker counts.
func (s *Server) recordPhase(next model.Cycle, offset int64, phase string, n, slots int64) {
	rec := s.cfg.Recorder
	if rec == nil {
		return
	}
	rec.Record(obs.Event{
		Type:   obs.TypeProducerPhase,
		T:      obs.At(next, offset),
		Reason: phase,
		N:      n,
		Slots:  slots,
	})
}
