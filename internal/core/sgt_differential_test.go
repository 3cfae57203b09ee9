package core

import (
	"errors"
	"math/rand"
	"testing"

	"bpush/internal/model"
	"bpush/internal/sgtest"
)

// refSGT is a reference SGT decision procedure that takes no shortcuts: it
// keeps every delta (no pruning), records precedence targets to ALL
// transactions that overwrote a readset item (not just the first writer,
// Claim 2), and rejects a read when any transaction that EVER wrote the
// item (not just the last writer, Claim 3) is reachable from a target.
// Claims 2 and 3 assert these decisions coincide with the optimized
// scheme's; this differential test checks exactly that over random
// workloads.
type refSGT struct {
	graph   *sgtest.Graph
	writers map[model.ItemID][]model.TxID // all writers per item, commit order
	targets []model.TxID
	readset map[model.ItemID]struct{}
}

func newRefSGT() *refSGT {
	return &refSGT{
		graph:   sgtest.New(),
		writers: make(map[model.ItemID][]model.TxID),
		readset: make(map[model.ItemID]struct{}),
	}
}

func (r *refSGT) begin() {
	r.targets = nil
	r.readset = make(map[model.ItemID]struct{})
}

func (r *refSGT) newCycle(t *testing.T, h *harness, cycle model.Cycle) {
	t.Helper()
	log, ok := h.logs[cycle]
	if !ok {
		return // cycle 1 has no log
	}
	if err := r.graph.Apply(log.Delta); err != nil {
		t.Fatal(err)
	}
	for item, ws := range log.AllWriters {
		if _, read := r.readset[item]; read {
			r.targets = append(r.targets, ws...)
		}
		r.writers[item] = append(r.writers[item], ws...)
	}
}

// rejects reports whether the all-edges policy rejects a read of item.
func (r *refSGT) rejects(item model.ItemID) bool {
	for _, w := range r.writers[item] {
		if r.graph.ReachableFromAny(r.targets, w) {
			return true
		}
	}
	return false
}

func (r *refSGT) read(item model.ItemID) {
	r.readset[item] = struct{}{}
}

func TestSGTMatchesAllEdgesReference(t *testing.T) {
	const (
		dbSize  = 30
		queries = 150
		trials  = 5
	)
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		h := newHarness(t, dbSize, 1, Options{Kind: KindSGT})
		ref := newRefSGT()

		advance := func() {
			txs := make([]model.ServerTx, 2)
			for i := range txs {
				w1 := model.ItemID(rng.Intn(dbSize) + 1)
				w2 := model.ItemID(rng.Intn(dbSize) + 1)
				txs[i] = rwTx([]model.ItemID{model.ItemID(rng.Intn(dbSize) + 1)}, []model.ItemID{w1, w2})
			}
			h.cycleTxs(txs...)
			ref.newCycle(t, h, h.cur.Cycle)
		}

		for q := 0; q < queries; q++ {
			if err := h.scheme.Begin(); err != nil {
				t.Fatal(err)
			}
			ref.begin()
			numReads := rng.Intn(6) + 2
			aborted := false
			for i := 0; i < numReads; i++ {
				item := model.ItemID(rng.Intn(dbSize) + 1)
				wantReject := ref.rejects(item)
				_, err := h.read(item)
				gotReject := errors.Is(err, ErrAborted)
				if err != nil && !gotReject {
					t.Fatal(err)
				}
				if gotReject != wantReject {
					t.Fatalf("trial %d query %d read %v: scheme reject=%v, all-edges reference reject=%v (Claims 2/3 violated)",
						trial, q, item, gotReject, wantReject)
				}
				if gotReject {
					aborted = true
					break
				}
				ref.read(item)
				if rng.Intn(3) == 0 {
					advance()
				}
			}
			if aborted {
				h.scheme.Abort()
				continue
			}
			if _, err := h.scheme.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSGTCommittedTransactionsAreSerializable is the master oracle for SGT
// (Theorem 3): for every committed query, rebuild the FULL serialization
// graph including R — dependency edges from the writers of the values R
// read, precedence edges to every transaction that overwrote a readset item
// after the version R observed — and assert R participates in no cycle.
func TestSGTCommittedTransactionsAreSerializable(t *testing.T) {
	const dbSize = 24
	rng := rand.New(rand.NewSource(7))
	h := newHarness(t, dbSize, 1, Options{Kind: KindSGT})

	full := sgtest.New() // the unpruned server graph
	committed := 0
	for q := 0; q < 300; q++ {
		if err := h.scheme.Begin(); err != nil {
			t.Fatal(err)
		}
		numReads := rng.Intn(6) + 2
		var obs []model.ReadObservation
		aborted := false
		for i := 0; i < numReads; i++ {
			item := model.ItemID(rng.Intn(dbSize) + 1)
			r, err := h.read(item)
			if errors.Is(err, ErrAborted) {
				aborted = true
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			obs = append(obs, r.Obs)
			if rng.Intn(2) == 0 {
				txs := []model.ServerTx{rwTx(
					[]model.ItemID{model.ItemID(rng.Intn(dbSize) + 1)},
					[]model.ItemID{model.ItemID(rng.Intn(dbSize) + 1), model.ItemID(rng.Intn(dbSize) + 1)},
				)}
				h.cycleTxs(txs...)
				if err := full.Apply(h.logs[h.cur.Cycle].Delta); err != nil {
					t.Fatal(err)
				}
			}
		}
		if aborted {
			h.scheme.Abort()
			continue
		}
		info, err := h.scheme.Commit()
		if err != nil {
			t.Fatal(err)
		}
		committed++
		assertSerializable(t, h, full, info)
	}
	if committed == 0 {
		t.Fatal("no queries committed; oracle never exercised")
	}
}

// assertSerializable checks that no precedence target of the committed
// query can reach any of its dependency sources in the full graph — i.e.
// adding R with all its edges keeps the graph acyclic.
func assertSerializable(t *testing.T, h *harness, full *sgtest.Graph, info CommitInfo) {
	t.Helper()
	// Dependency sources: writers of the observed values.
	var sources []model.TxID
	// Precedence targets: every writer of a readset item in a cycle
	// after the observed version, up to the commit cycle.
	var targets []model.TxID
	for _, o := range info.Reads {
		if !o.Writer.IsZero() {
			sources = append(sources, o.Writer)
		}
		for c := o.Version + 1; c <= info.CommitCycle; c++ {
			log, ok := h.logs[c]
			if !ok {
				continue
			}
			targets = append(targets, log.AllWriters[o.Item]...)
		}
	}
	for _, src := range sources {
		if full.ReachableFromAny(targets, src) {
			t.Fatalf("committed query is NOT serializable: path from an overwriter back to dependency source %v", src)
		}
	}
}
