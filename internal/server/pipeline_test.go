package server

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"bpush/internal/model"
	"bpush/internal/sg"
	"bpush/internal/sgtest"
)

func randomTxs(seed int64, n, dbSize int) []model.ServerTx {
	rng := rand.New(rand.NewSource(seed))
	txs := make([]model.ServerTx, n)
	for i := range txs {
		var ops []model.Op
		for r := 0; r < 2+rng.Intn(3); r++ {
			ops = append(ops, model.Op{Kind: model.OpRead, Item: model.ItemID(rng.Intn(dbSize) + 1)})
		}
		for w := 0; w < 1+rng.Intn(2); w++ {
			item := model.ItemID(rng.Intn(dbSize) + 1)
			ops = append(ops, model.Op{Kind: model.OpRead, Item: item}, model.Op{Kind: model.OpWrite, Item: item})
		}
		txs[i] = model.ServerTx{Ops: ops}
	}
	return txs
}

// oracleCommit commits one batch on the differential oracle, the serial
// commit loop.
func oracleCommit(t *testing.T, s *Server, txs []model.ServerTx) *CycleLog {
	t.Helper()
	log, err := s.serialCommit(txs)
	if err != nil {
		t.Fatal(err)
	}
	return log
}

// assertSameState compares the complete externally observable database
// state of two servers: cycle position, current snapshot, and every
// item's retained version chain.
func assertSameState(t *testing.T, want, got *Server, label string) {
	t.Helper()
	if want.Cycle() != got.Cycle() {
		t.Fatalf("%s: cycle %d != %d", label, got.Cycle(), want.Cycle())
	}
	if !reflect.DeepEqual(want.Snapshot(), got.Snapshot()) {
		t.Fatalf("%s: snapshots differ", label)
	}
	for i := 1; i <= want.DBSize(); i++ {
		wv, err := want.Versions(model.ItemID(i))
		if err != nil {
			t.Fatal(err)
		}
		gv, err := got.Versions(model.ItemID(i))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wv, gv) {
			t.Fatalf("%s: item %d version chains differ:\noracle:   %v\npipeline: %v", label, i, wv, gv)
		}
	}
}

// TestPipelineMatchesOracle is the tentpole's differential suite at the
// server level: across seeds, worker counts, and several consecutive
// cycles (so reader sets carry over between batches), the
// plan/place/execute pipeline must produce exactly the cycle logs and
// database states of the serial oracle.
func TestPipelineMatchesOracle(t *testing.T) {
	const (
		dbSize = 30
		txs    = 14
		cycles = 6
	)
	for _, seed := range []int64{1, 2, 3, 5, 8, 13, 21, 34} {
		for _, workers := range []int{1, 2, 4, 8} {
			label := fmt.Sprintf("seed=%d workers=%d", seed, workers)
			oracle := mustNew(t, Config{DBSize: dbSize, MaxVersions: 3})
			pipe := mustNew(t, Config{DBSize: dbSize, MaxVersions: 3, Workers: workers})
			for c := 0; c < cycles; c++ {
				batch := randomTxs(seed*100+int64(c), txs, dbSize)
				want := oracleCommit(t, oracle, batch)
				got, err := pipe.CommitAndAdvance(batch)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%s cycle %d: logs differ:\noracle:   %+v\npipeline: %+v", label, c, want, got)
				}
				assertSameState(t, oracle, pipe, fmt.Sprintf("%s cycle %d", label, c))
			}
		}
	}
}

// TestPipelineWorkerCountInvariant pins the bar directly: the pipeline's
// own output is identical at every worker count, batch after batch.
func TestPipelineWorkerCountInvariant(t *testing.T) {
	const dbSize = 25
	base := mustNew(t, Config{DBSize: dbSize, MaxVersions: 2, Workers: 1})
	others := map[int]*Server{}
	for _, w := range []int{2, 4, 8} {
		others[w] = mustNew(t, Config{DBSize: dbSize, MaxVersions: 2, Workers: w})
	}
	for c := 0; c < 5; c++ {
		batch := randomTxs(int64(c+1), 10, dbSize)
		want, err := base.CommitAndAdvance(batch)
		if err != nil {
			t.Fatal(err)
		}
		for w, s := range others {
			got, err := s.CommitAndAdvance(batch)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("cycle %d: %d-worker log differs from 1-worker log", c, w)
			}
		}
	}
}

// TestPipelineEmptyAndDegenerateBatches covers the shapes the random
// workload rarely produces: empty batches, single-item pile-ups, and
// repeated read/write of one item by one transaction.
func TestPipelineEmptyAndDegenerateBatches(t *testing.T) {
	oracle := mustNew(t, Config{DBSize: 5, MaxVersions: 2})
	pipe := mustNew(t, Config{DBSize: 5, MaxVersions: 2, Workers: 4})
	rd := func(i model.ItemID) model.Op { return model.Op{Kind: model.OpRead, Item: i} }
	cat := func(groups ...[]model.Op) []model.Op {
		var out []model.Op
		for _, g := range groups {
			out = append(out, g...)
		}
		return out
	}
	batches := [][]model.ServerTx{
		nil, // empty cycle
		{ // every tx hammers item 1
			{Ops: cat(rw(1), []model.Op{rd(1)})},
			{Ops: rw(1)},
			{Ops: []model.Op{rd(1)}},
		},
		{ // one tx reads and writes the same item repeatedly
			{Ops: cat(rw(2), rw(2), []model.Op{rd(2), {Kind: model.OpWrite, Item: 2}})},
		},
		nil, // empty cycle after activity: reader carry-over intact
		{ // pure readers, no writers
			{Ops: []model.Op{rd(1), rd(2)}},
			{Ops: []model.Op{rd(2)}},
		},
		{ // writers arrive for the carried-over readers
			{Ops: cat(rw(1), rw(2))},
		},
	}
	for i, batch := range batches {
		want := oracleCommit(t, oracle, batch)
		got, err := pipe.CommitAndAdvance(batch)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("batch %d: logs differ:\noracle:   %+v\npipeline: %+v", i, want, got)
		}
		assertSameState(t, oracle, pipe, fmt.Sprintf("batch %d", i))
	}
}

// readHeavyTxs builds a batch in which reader sets grow long before a
// write flushes them: every transaction reads a few of dbSize items, and
// about one in eight also writes one. Each write turns the item's pending
// readers into rw edges to the writer, so per-To runs exceed the
// insertion-sort cutoff and take the long-run sort.
func readHeavyTxs(seed int64, n, dbSize int) []model.ServerTx {
	rng := rand.New(rand.NewSource(seed))
	txs := make([]model.ServerTx, n)
	for i := range txs {
		var ops []model.Op
		for r := 0; r < 2+rng.Intn(3); r++ {
			ops = append(ops, model.Op{Kind: model.OpRead, Item: model.ItemID(rng.Intn(dbSize) + 1)})
		}
		if rng.Intn(8) == 0 {
			ops = append(ops, rw(model.ItemID(rng.Intn(dbSize)+1))...)
		}
		txs[i] = model.ServerTx{Ops: ops}
	}
	return txs
}

// longestRun returns the length of the longest per-To run of a canonical
// edge list, and whether some run that long or longer has a From whose
// cycle needs more than 32 bits.
func longestRun(edges []sg.Edge) (longest int, wide bool) {
	for i := 0; i < len(edges); {
		j, w := i, false
		for ; j < len(edges) && edges[j].To == edges[i].To; j++ {
			w = w || edges[j].From.Cycle >= 1<<32
		}
		if j-i > longest {
			longest = j - i
		}
		if j-i > 24 && w {
			wide = true
		}
		i = j
	}
	return longest, wide
}

// TestPipelineLongRunsMatchOracle drives per-To runs longer than the
// insertion-sort cutoff through both long-run sorts and checks each
// against the serial oracle: packed uint64 keys while every cycle fits in
// 32 bits, and the TxID comparator once a run holds a From.Cycle ≥ 2³²
// (a server restored just below that cycle, so its runs mix both sides).
func TestPipelineLongRunsMatchOracle(t *testing.T) {
	const dbSize, txs, cycles = 6, 120, 4
	for _, start := range []model.Cycle{1, 1<<32 - 2} {
		for _, workers := range []int{1, 3} {
			label := fmt.Sprintf("start=%d workers=%d", start, workers)
			st := mustNew(t, Config{DBSize: dbSize, MaxVersions: 3}).ExportState()
			st.Cycle = start
			oracle, err := Restore(Config{DBSize: dbSize, MaxVersions: 3}, st)
			if err != nil {
				t.Fatal(err)
			}
			pipe, err := Restore(Config{DBSize: dbSize, MaxVersions: 3, Workers: workers}, st)
			if err != nil {
				t.Fatal(err)
			}
			longest, wide := 0, false
			for c := 0; c < cycles; c++ {
				batch := readHeavyTxs(int64(c+1), txs, dbSize)
				want := oracleCommit(t, oracle, batch)
				got, err := pipe.CommitAndAdvance(batch)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%s cycle %d: logs differ:\noracle:   %+v\npipeline: %+v", label, c, want, got)
				}
				assertSameState(t, oracle, pipe, fmt.Sprintf("%s cycle %d", label, c))
				n, w := longestRun(got.Delta.Edges)
				longest, wide = max(longest, n), wide || w
			}
			if longest <= 24 {
				t.Fatalf("%s: longest run %d edges; the long-run sort never ran", label, longest)
			}
			if wantWide := start > 1; wide != wantWide {
				t.Fatalf("%s: a long run with a From.Cycle >= 2^32: %v, want %v", label, wide, wantWide)
			}
		}
	}
}

// TestPipelineValidation pins the error behavior: malformed batches are
// rejected up front, before any state mutation, with the serial loop's
// TxID-addressed errors; a negative worker count never builds a server.
func TestPipelineValidation(t *testing.T) {
	if _, err := New(Config{DBSize: 10, MaxVersions: 1, Workers: -1}); err == nil {
		t.Error("negative worker count accepted")
	}
	s := mustNew(t, Config{DBSize: 10, MaxVersions: 1, Workers: 2})
	blind := []model.ServerTx{{Ops: []model.Op{{Kind: model.OpWrite, Item: 1}}}}
	if _, err := s.CommitAndAdvance(blind); err == nil {
		t.Error("blind write accepted")
	}
	bad := []model.ServerTx{{Ops: []model.Op{{Kind: model.OpRead, Item: 99}}}}
	if _, err := s.CommitAndAdvance(bad); err == nil {
		t.Error("out-of-range item accepted")
	}
	kinds := []model.ServerTx{{Ops: []model.Op{{Kind: 99, Item: 1}}}}
	if _, err := s.CommitAndAdvance(kinds); err == nil {
		t.Error("invalid op kind accepted")
	}
	// A failed batch must not have advanced the cycle or touched state.
	if s.Cycle() != 1 {
		t.Errorf("cycle advanced to %d after rejected batches", s.Cycle())
	}
	clean := mustNew(t, Config{DBSize: 10, MaxVersions: 1})
	assertSameState(t, clean, s, "after rejected batches")
}

// decodeFuzzBatch derives a transaction batch from raw fuzz bytes. Most
// constructions are valid (reads, and read-then-write pairs); one opcode
// deliberately produces a blind write so the fuzzer also explores the
// rejection path.
func decodeFuzzBatch(data []byte, dbSize int) []model.ServerTx {
	var txs []model.ServerTx
	var ops []model.Op
	flush := func() {
		if len(ops) > 0 {
			txs = append(txs, model.ServerTx{Ops: ops})
			ops = nil
		}
	}
	for i := 0; i+1 < len(data); i += 2 {
		item := model.ItemID(int(data[i])%dbSize + 1)
		switch data[i+1] % 8 {
		case 0, 1, 2:
			ops = append(ops, model.Op{Kind: model.OpRead, Item: item})
		case 3, 4, 5:
			ops = append(ops, model.Op{Kind: model.OpRead, Item: item}, model.Op{Kind: model.OpWrite, Item: item})
		case 6:
			flush()
		case 7:
			// Blind write: both paths must reject the whole batch.
			ops = append(ops, model.Op{Kind: model.OpWrite, Item: item})
		}
		if len(ops) >= 12 {
			flush()
		}
	}
	flush()
	return txs
}

// FuzzPipelineVsOracle feeds random transaction batches through the
// planner-driven pipeline and the serial oracle and requires identical
// outcomes: same error/no-error verdict, and on success identical cycle
// logs and database states across several worker counts.
func FuzzPipelineVsOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 3, 2, 6, 3, 4})
	f.Add([]byte{10, 3, 10, 3, 10, 0, 10, 6, 10, 4})
	f.Add([]byte{5, 7})
	f.Add([]byte{1, 3, 1, 3, 1, 3, 1, 3, 2, 0, 2, 4, 7, 5, 9, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		const dbSize = 12
		txs := decodeFuzzBatch(data, dbSize)
		oracle, err := New(Config{DBSize: dbSize, MaxVersions: 2})
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := oracle.serialCommit(txs)
		for _, workers := range []int{1, 3, 8} {
			pipe, err := New(Config{DBSize: dbSize, MaxVersions: 2, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			got, gotErr := pipe.CommitAndAdvance(txs)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("workers=%d: error verdicts differ: oracle=%v pipeline=%v", workers, wantErr, gotErr)
			}
			if wantErr != nil {
				continue
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("workers=%d: logs differ:\noracle:   %+v\npipeline: %+v", workers, want, got)
			}
			if !reflect.DeepEqual(oracle.Snapshot(), pipe.Snapshot()) {
				t.Fatalf("workers=%d: snapshots differ", workers)
			}
		}
	})
}

// TestConcurrentInvariants runs contended batches through the pipeline
// with many workers and checks everything the broadcast layer depends on.
func TestConcurrentInvariants(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		s := mustNew(t, Config{DBSize: 12, MaxVersions: 2, Workers: workers})
		g, ring := sgtest.New(), sg.New()
		for cyc := 0; cyc < 6; cyc++ {
			txs := randomTxs(int64(100+cyc), 16, 12)
			log, err := s.CommitAndAdvance(txs)
			if err != nil {
				t.Fatal(err)
			}
			if log.NumCommitted != len(txs) {
				t.Fatalf("committed %d of %d", log.NumCommitted, len(txs))
			}
			// Every committed transaction appears exactly once, with
			// sequence numbers 0..n-1.
			seen := make(map[uint32]bool)
			for _, n := range log.Delta.Nodes {
				if n.Cycle != log.Cycle {
					t.Fatalf("node %v from wrong cycle", n)
				}
				if seen[n.Seq] {
					t.Fatalf("duplicate seq %d", n.Seq)
				}
				seen[n.Seq] = true
			}
			if len(seen) != len(txs) {
				t.Fatalf("%d nodes for %d txs", len(seen), len(txs))
			}
			// Edges respect commit order (Claim 1) and integrate into an
			// acyclic graph.
			for _, e := range log.Delta.Edges {
				if !e.From.Before(e.To) {
					t.Fatalf("edge %v -> %v violates commit order", e.From, e.To)
				}
			}
			if err := g.Apply(log.Delta); err != nil {
				t.Fatal(err)
			}
			if err := ring.Apply(log.Delta); err != nil {
				t.Fatalf("delta is not a canonical in-edge block: %v", err)
			}
			// First/last writers must be consistent with AllWriters.
			for item, ws := range log.AllWriters {
				if log.FirstWriter[item] != ws[0] {
					t.Fatalf("first writer mismatch for %v", item)
				}
				if log.LastWriter[item] != ws[len(ws)-1] {
					t.Fatalf("last writer mismatch for %v", item)
				}
				for i := 1; i < len(ws); i++ {
					if !ws[i-1].Before(ws[i]) {
						t.Fatalf("AllWriters out of commit order for %v", item)
					}
				}
			}
		}
		if !g.IsAcyclic() {
			t.Fatal("concurrent execution produced a cyclic serialization graph")
		}
	}
}

// TestConcurrentVersionsStayOrdered: the multiversion store must keep
// ascending version cycles per item under parallel pipeline commits.
func TestConcurrentVersionsStayOrdered(t *testing.T) {
	s := mustNew(t, Config{DBSize: 8, MaxVersions: 4, Workers: 4})
	for cyc := 0; cyc < 8; cyc++ {
		if _, err := s.CommitAndAdvance(randomTxs(int64(cyc), 10, 8)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 8; i++ {
		vs, err := s.Versions(model.ItemID(i))
		if err != nil {
			t.Fatal(err)
		}
		for j := 1; j < len(vs); j++ {
			if vs[j].Cycle <= vs[j-1].Cycle {
				t.Fatalf("item %d versions out of order: %v", i, vs)
			}
		}
	}
}

// TestConcurrentDeadlockProneWorkload commits opposite-order writesets
// over two items, the shape that deadlocks a locking executor; the
// pipeline must commit every transaction and record every writer.
func TestConcurrentDeadlockProneWorkload(t *testing.T) {
	s := mustNew(t, Config{DBSize: 4, MaxVersions: 1, Workers: 6})
	var txs []model.ServerTx
	for i := 0; i < 12; i++ {
		a, b := model.ItemID(1), model.ItemID(2)
		if i%2 == 1 {
			a, b = b, a
		}
		txs = append(txs, model.ServerTx{Ops: []model.Op{
			{Kind: model.OpRead, Item: a}, {Kind: model.OpWrite, Item: a},
			{Kind: model.OpRead, Item: b}, {Kind: model.OpWrite, Item: b},
		}})
	}
	log, err := s.CommitAndAdvance(txs)
	if err != nil {
		t.Fatal(err)
	}
	if log.NumCommitted != 12 {
		t.Errorf("committed %d of 12", log.NumCommitted)
	}
	if len(log.AllWriters[1]) != 12 || len(log.AllWriters[2]) != 12 {
		t.Errorf("writer counts %d/%d, want 12/12",
			len(log.AllWriters[1]), len(log.AllWriters[2]))
	}
}
