package core

import (
	"errors"
	"runtime"
	"testing"

	"bpush/internal/broadcast"
	"bpush/internal/model"
	"bpush/internal/sg"
)

// rwTx builds a server transaction that reads then writes each of writes,
// after reading each of reads.
func rwTx(reads []model.ItemID, writes []model.ItemID) model.ServerTx {
	var ops []model.Op
	for _, r := range reads {
		ops = append(ops, model.Op{Kind: model.OpRead, Item: r})
	}
	for _, w := range writes {
		ops = append(ops, model.Op{Kind: model.OpRead, Item: w}, model.Op{Kind: model.OpWrite, Item: w})
	}
	return model.ServerTx{Ops: ops}
}

func TestSGTAcceptsUnrelatedUpdates(t *testing.T) {
	h := newHarness(t, 10, 1, Options{Kind: KindSGT})
	h.mustBegin()
	h.mustRead(3)
	h.cycle(8) // unrelated write, no conflict with the readset
	h.mustRead(8)
	h.mustCommit()
}

func TestSGTAcceptsInvalidatedReadsetWithoutCycle(t *testing.T) {
	// The invalidation-only method would abort here; SGT keeps the
	// transaction because reading the OLD value of 3 and the NEW value
	// of 8 is serializable (R before the writer of 3, after the writer
	// of 8, and the two writers do not conflict).
	h := newHarness(t, 10, 1, Options{Kind: KindSGT})
	h.mustBegin()
	h.mustRead(3)
	h.cycleTxs(rwTx(nil, []model.ItemID{3})) // overwrites the read item
	h.cycleTxs(rwTx(nil, []model.ItemID{8}))
	h.mustRead(8)
	h.mustCommit()
}

func TestSGTRejectsDirectCycle(t *testing.T) {
	// One server transaction overwrites item 3 (read by R) and also
	// writes item 8. Reading 8 would place R both before it (precedence
	// on 3) and after it (dependency on 8) — a cycle.
	h := newHarness(t, 10, 1, Options{Kind: KindSGT})
	h.mustBegin()
	h.mustRead(3)
	h.cycleTxs(rwTx(nil, []model.ItemID{3, 8}))
	h.wantAbort(8)
}

func TestSGTRejectsTransitiveCycle(t *testing.T) {
	// T_a overwrites R's item 3. Next cycle T_c reads 3 (edge T_a->T_c)
	// and writes 8. Reading 8 from T_c closes R -> T_a -> T_c -> R.
	h := newHarness(t, 10, 1, Options{Kind: KindSGT})
	h.mustBegin()
	h.mustRead(3)
	h.cycleTxs(rwTx(nil, []model.ItemID{3}))
	h.cycleTxs(rwTx([]model.ItemID{3}, []model.ItemID{8}))
	h.wantAbort(8)
}

func TestSGTAcceptsParallelWriters(t *testing.T) {
	// T_a overwrites 3; an unrelated T_b (no path from T_a) writes 8.
	// Reading 8 from T_b is safe.
	h := newHarness(t, 10, 1, Options{Kind: KindSGT})
	h.mustBegin()
	h.mustRead(3)
	h.cycleTxs(rwTx(nil, []model.ItemID{3}), rwTx(nil, []model.ItemID{8}))
	h.mustRead(8)
	h.mustCommit()
}

func TestSGTRereadOfOverwrittenItemRejected(t *testing.T) {
	// Re-reading item 3 after it was overwritten: the new value's writer
	// is exactly the precedence target — an immediate cycle.
	h := newHarness(t, 10, 1, Options{Kind: KindSGT})
	h.mustBegin()
	h.mustRead(3)
	h.cycleTxs(rwTx(nil, []model.ItemID{3}))
	h.wantAbort(3)
}

func TestSGTInitialLoadValuesAlwaysAccepted(t *testing.T) {
	h := newHarness(t, 10, 1, Options{Kind: KindSGT})
	h.mustBegin()
	h.mustRead(3)
	h.cycleTxs(rwTx(nil, []model.ItemID{3}))
	// Item 9 still carries the initial load (writer tx 0.0): no node, no
	// cycle possible.
	h.mustRead(9)
	h.mustCommit()
}

func TestSGTMissedCycleAborts(t *testing.T) {
	h := newHarness(t, 10, 1, Options{Kind: KindSGT})
	h.mustBegin()
	h.mustRead(3)
	h.skipCycle()
	h.resume()
	h.wantAbort(5)
}

func TestSGTTolerateDisconnectsAcceptsOldValues(t *testing.T) {
	h := newHarness(t, 10, 1, Options{Kind: KindSGT, TolerateDisconnects: true})
	h.mustBegin()
	h.mustRead(3) // heard through cycle 1
	h.skipCycle(5)
	h.resume()
	// Item 9's version predates the gap: acceptable under the §5.2.2
	// version-number enhancement.
	h.mustRead(9)
	// Item 5 was updated during the missed cycle: its version postdates
	// the ceiling and must be rejected.
	h.wantAbort(5)
}

// writerOf returns the transaction of cycle c's log that committed seq-th.
func (h *harness) writerOf(c model.Cycle, seq int) model.TxID {
	h.t.Helper()
	log, ok := h.logs[c]
	if !ok || seq >= len(log.Delta.Nodes) {
		h.t.Fatalf("no transaction %d in cycle %v", seq, c)
	}
	return log.Delta.Nodes[seq]
}

func TestSGTGraphPruning(t *testing.T) {
	h := newHarness(t, 10, 1, Options{Kind: KindSGT})
	// One read-modify-write of item 1 per cycle: a chain of conflict
	// edges from each cycle's transaction to the next one's.
	for i := 0; i < 10; i++ {
		h.cycleTxs(rwTx(nil, []model.ItemID{1}))
	}
	s, ok := h.scheme.(*sgt)
	if !ok {
		t.Fatal("scheme is not *sgt")
	}
	cur := h.cur.Cycle
	first, prev, last := h.writerOf(2, 0), h.writerOf(cur-1, 0), h.writerOf(cur, 0)
	// With no active invalidated transaction, only the current cycle's
	// subgraph may be retained (Lemma 1 space bound): not even the edge
	// from the previous cycle's transaction into this one counts.
	if s.graph.ReachableFromAny([]model.TxID{first}, last) || s.graph.ReachableFromAny([]model.TxID{prev}, last) {
		t.Errorf("graph still reaches %v from %v or %v with no active transaction, want everything before %v pruned",
			last, first, prev, cur)
	}
}

func TestSGTGraphRetainedWhileTransactionNeedsIt(t *testing.T) {
	h := newHarness(t, 10, 1, Options{Kind: KindSGT})
	h.mustBegin()
	h.mustRead(3)
	h.cycleTxs(rwTx(nil, []model.ItemID{3, 8})) // c_o: subgraphs must be kept
	co := h.cur.Cycle
	for i := 0; i < 5; i++ {
		h.cycleTxs(rwTx(nil, []model.ItemID{8}))
	}
	s := h.scheme.(*sgt)
	tf, last := h.writerOf(co, 0), h.writerOf(h.cur.Cycle, 0)
	// The chain of writes of item 8 runs from T_f through every cycle
	// since c_o: the whole window must still be there.
	if !s.graph.ReachableFromAny(s.targets, last) {
		t.Errorf("precedence targets %v do not reach %v, want the full window since c_o (%v) retained", s.targets, last, co)
	}
	// After the transaction ends, the next cycle prunes again.
	h.scheme.Abort()
	h.cycle()
	if s.graph.ReachableFromAny([]model.TxID{tf}, last) {
		t.Errorf("graph still reaches %v from %v after abort, want the window pruned", last, tf)
	}
}

func TestSGTWithCacheRunsCycleTestOnCachedReads(t *testing.T) {
	h := newHarness(t, 10, 1, Options{Kind: KindSGT, CacheSize: 10})
	// Warm the cache with item 8's future-conflicting value.
	h.mustBegin()
	h.mustRead(3)
	// One transaction overwrites 3 and 8 -> reading 8 (even from cache,
	// after it is refreshed) must still be rejected.
	h.cycleTxs(rwTx(nil, []model.ItemID{3, 8}))
	h.cycle() // autoprefetch refreshes nothing (8 not cached), idle
	h.wantAbort(8)
}

func TestSGTWithCacheServesSafeCachedReads(t *testing.T) {
	h := newHarness(t, 10, 1, Options{Kind: KindSGT, CacheSize: 10})
	h.mustBegin()
	h.mustRead(8)
	h.mustCommit()
	h.mustBegin()
	r := h.mustRead(8)
	if r.Source != SourceCache {
		t.Errorf("source = %v, want cache", r.Source)
	}
	h.mustCommit()
}

func TestSGTCommitInfoHasNoSerializationCycle(t *testing.T) {
	h := newHarness(t, 10, 1, Options{Kind: KindSGT})
	h.mustBegin()
	h.mustRead(3)
	info, err := h.scheme.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if info.SerializationCycle != 0 {
		t.Errorf("SerializationCycle = %v, want 0 (graph-certified)", info.SerializationCycle)
	}
	if info.StartCycle != 1 || info.CommitCycle != 1 {
		t.Errorf("start/commit = %v/%v, want 1/1", info.StartCycle, info.CommitCycle)
	}
}

func TestSGTAbortReasonMentionsCycle(t *testing.T) {
	h := newHarness(t, 10, 1, Options{Kind: KindSGT})
	h.mustBegin()
	h.mustRead(3)
	h.cycleTxs(rwTx(nil, []model.ItemID{3, 8}))
	_, err := h.read(8)
	var ae *AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v, want *AbortError", err)
	}
	if ae.Reason == "" {
		t.Error("empty abort reason")
	}
}

// TestSGTRejectsDeltaOfAnotherCycle: an SGT client sizes its graph by the
// delta's cycle, so a becast of cycle 5 whose node-only delta claims cycle
// 5+2^20 must be a clean error, not a ring of a million blocks. broadcast.New
// rejects it; a becast built around New is rejected when NewCycle primes it.
func TestSGTRejectsDeltaOfAnotherCycle(t *testing.T) {
	far := model.Cycle(5 + 1<<20)
	d := sg.Delta{Cycle: far, Nodes: []model.TxID{{Cycle: far}}}
	entries := []broadcast.Entry{{Item: 1, Overflow: -1}, {Item: 2, Overflow: -1}}
	if _, err := broadcast.New(5, nil, d, entries, nil, 1, 0); err == nil {
		t.Fatal("broadcast.New accepted a delta of cycle 5+2^20 on cycle 5")
	}
	b, err := broadcast.New(5, nil, sg.Delta{}, entries, nil, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	b.Delta = d
	s, err := New(Options{Kind: KindSGT})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = s.NewCycle(b)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("NewCycle accepted a delta of cycle 5+2^20 on cycle 5")
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
		t.Errorf("rejecting the delta allocated %d bytes", grown)
	}
}
