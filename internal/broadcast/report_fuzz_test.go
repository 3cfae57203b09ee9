package broadcast

import (
	"slices"
	"sort"
	"testing"

	"bpush/internal/model"
	"bpush/internal/sg"
	"bpush/internal/sgtest"
)

// fz is a deterministic byte consumer: the fuzzer's raw input becomes a
// becast shape. Exhausted input yields zeros, so every prefix is valid.
type fz struct {
	data []byte
	off  int
}

func (f *fz) byte() byte {
	if f.off >= len(f.data) {
		return 0
	}
	b := f.data[f.off]
	f.off++
	return b
}

func (f *fz) intn(n int) int {
	if n <= 1 {
		return 0
	}
	return int(f.byte()) % n
}

// fuzzBcast derives a becast from the fuzz input: a flat data segment,
// per-item overflow groups (newest first, distinct descending cycles), an
// invalidation report, and an SG delta. The report is usually strictly
// ascending, as every producer airs it; sometimes two lines are swapped
// or one is repeated, so New must reject exactly the reports out of
// order. The delta's edges point into its own cycle and are usually put
// in canonical (To, From) order; unsorted lists and backward edges
// remain, so Compile must reject exactly the malformed blocks. report is
// the report handed to New.
func fuzzBcast(f *fz) (b *Bcast, report []InvalidationEntry, err error) {
	const cyc = model.Cycle(9)
	n := 1 + f.intn(24)
	entries := make([]Entry, n)
	var overflow []OldVersion
	for i := range entries {
		entries[i] = Entry{
			Item:     model.ItemID(i + 1),
			Version:  model.Version{Value: model.Value(i), Cycle: cyc - 1},
			Overflow: -1,
		}
		if f.intn(3) == 0 {
			group := 1 + f.intn(3)
			entries[i].Overflow = int32(len(overflow))
			for g := 0; g < group; g++ {
				overflow = append(overflow, OldVersion{
					Item:    model.ItemID(i + 1),
					Version: model.Version{Value: model.Value(100 + g), Cycle: cyc - model.Cycle(2+g)},
				})
			}
		}
	}
	for i := 1; i <= n; i++ {
		if f.intn(3) == 0 {
			report = append(report, InvalidationEntry{
				Item:        model.ItemID(i),
				FirstWriter: model.TxID{Cycle: cyc - 1, Seq: uint32(f.intn(4))},
			})
		}
	}
	if len(report) > 0 && f.intn(8) == 0 {
		i, j := f.intn(len(report)), f.intn(len(report))
		if f.intn(2) == 0 {
			report[i], report[j] = report[j], report[i]
		} else {
			report = slices.Insert(report, i, report[j])
		}
	}
	tx := func() model.TxID {
		return model.TxID{Cycle: cyc - model.Cycle(f.intn(3)), Seq: uint32(f.intn(4))}
	}
	delta := sg.Delta{Cycle: cyc}
	for k := f.intn(6); k > 0; k-- {
		delta.Nodes = append(delta.Nodes, tx())
	}
	for k := f.intn(10); k > 0; k-- {
		to := model.TxID{Cycle: cyc, Seq: uint32(f.intn(4))}
		if f.intn(8) == 0 {
			to = tx() // possibly into another cycle
		}
		delta.Edges = append(delta.Edges, sg.Edge{From: tx(), To: to})
	}
	if f.intn(4) != 0 {
		// The producer's form: the cycle's transactions declared, the
		// block sorted and duplicate-free.
		delta.Nodes = []model.TxID{{Cycle: cyc}, {Cycle: cyc, Seq: 1}, {Cycle: cyc, Seq: 2}, {Cycle: cyc, Seq: 3}}
		sort.Slice(delta.Edges, func(i, j int) bool { return sg.EdgeLess(delta.Edges[i], delta.Edges[j]) })
		uniq := delta.Edges[:0]
		for i, e := range delta.Edges {
			if i == 0 || e != delta.Edges[i-1] {
				uniq = append(uniq, e)
			}
		}
		delta.Edges = uniq
	}
	b, err = New(cyc, report, delta, entries, overflow, len(delta.Nodes), n)
	return b, report, err
}

// FuzzReportQueries cross-checks the in-place control-information reads
// against map and linear-scan oracles over the same becast: New's
// report-order check, report membership and first writer at item
// granularity, bucket expansion and membership at a granularity of 2..8,
// and serialization-graph delta integration (graphs fed the compiled and
// the checked delta must answer every cycle test as the map oracle does,
// including under a prune floor, and Compile must reject exactly the
// malformed blocks).
func FuzzReportQueries(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 0, 1, 2, 0, 0, 3, 1, 1, 0, 2, 2, 5, 1, 0, 3})
	f.Add([]byte{23, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 2, 2, 2, 9, 9, 4, 4, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		fzr := &fz{data: data}
		b, report, err := fuzzBcast(fzr)
		ascending := true
		for i := 1; i < len(report); i++ {
			ascending = ascending && report[i-1].Item < report[i].Item
		}
		if (err != nil) == ascending {
			t.Fatalf("New on report %v: err %v, want an error exactly when not strictly ascending", report, err)
		}
		if err != nil {
			return
		}
		granularity := 2 + fzr.intn(7)
		prune := model.Cycle(fzr.intn(3)) + 7 // 7..9, straddling delta cycles

		cd, primeErr := b.PrimeIndex()

		// Oracle 1: delta validity. Compile (inside PrimeIndex) and Apply
		// must reject exactly the deltas that are not their cycle's
		// in-edge block: an edge against commit order, into another
		// cycle or an undeclared transaction, or not strictly after its
		// predecessor in (To, From) order.
		malformed := false
		for i, e := range b.Delta.Edges {
			if !e.From.Before(e.To) || e.To.Cycle != b.Delta.Cycle || int(e.To.Seq) >= len(b.Delta.Nodes) ||
				(i > 0 && !sg.EdgeLess(b.Delta.Edges[i-1], e)) {
				malformed = true
			}
		}
		applyErr := sg.New().Apply(b.Delta)
		if (primeErr != nil) != malformed || (applyErr != nil) != malformed {
			t.Fatalf("PrimeIndex err %v, Apply err %v, want an error exactly when malformed (%v)", primeErr, applyErr, malformed)
		}

		// Oracle 2: item-granularity membership and first writers.
		inReport := make(map[model.ItemID]model.TxID)
		for _, e := range b.Report {
			inReport[e.Item] = e.FirstWriter
		}
		for i := -1; i <= len(b.Entries)+1; i++ {
			item := model.ItemID(i + 1)
			w, ok := inReport[item]
			if got := b.Invalidates(item, 1); got != ok {
				t.Errorf("Invalidates(%d, 1) = %v, oracle %v", item, got, ok)
			}
			gw, gok := b.FirstWriter(item)
			if gok != ok || (ok && gw != w) {
				t.Errorf("FirstWriter(%d) = %v/%v, oracle %v/%v", item, gw, gok, w, ok)
			}
		}
		var gotItems []model.ItemID
		b.EachInvalidated(1, func(it model.ItemID) { gotItems = append(gotItems, it) })
		if len(gotItems) != len(b.Report) {
			t.Fatalf("EachInvalidated(1) = %v, report %v", gotItems, b.Report)
		}
		for i, it := range gotItems {
			if it != b.Report[i].Item {
				t.Fatalf("EachInvalidated(1) = %v, report %v", gotItems, b.Report)
			}
		}

		// Oracle 3: bucket expansion — walk the report in order, expand
		// each bucket at first appearance, cap at the data-segment length.
		seen := make(map[int]struct{})
		var wantExp []model.ItemID
		for _, e := range b.Report {
			bk := (int(e.Item) - 1) / granularity
			if _, dup := seen[bk]; dup {
				continue
			}
			seen[bk] = struct{}{}
			lo := bk*granularity + 1
			hi := lo + granularity - 1
			if hi > len(b.Entries) {
				hi = len(b.Entries)
			}
			for it := lo; it <= hi; it++ {
				wantExp = append(wantExp, model.ItemID(it))
			}
		}
		var gotExp []model.ItemID
		b.EachInvalidated(granularity, func(it model.ItemID) { gotExp = append(gotExp, it) })
		if !slices.Equal(gotExp, wantExp) {
			t.Fatalf("EachInvalidated(%d) = %v, oracle %v", granularity, gotExp, wantExp)
		}
		for i := -1; i <= len(b.Entries)+granularity; i++ {
			item := model.ItemID(i + 1)
			_, want := seen[(int(item)-1)/granularity]
			if got := b.Invalidates(item, granularity); got != want {
				t.Errorf("Invalidates(%d, %d) = %v, oracle %v", item, granularity, got, want)
			}
		}
		if primeErr != nil {
			return // both sides reject the delta; no graph to compare
		}

		// Oracle 4: a graph fed the compiled delta and one fed the checked
		// delta answer every cycle test as the map oracle does, with and
		// without a prune floor.
		var txs []model.TxID
		txs = append(txs, b.Delta.Nodes...)
		for _, e := range b.Delta.Edges {
			txs = append(txs, e.From, e.To)
		}
		for _, floor := range []model.Cycle{0, prune} {
			naive, compiled, oracle := sg.New(), sg.New(), sgtest.New()
			naive.PruneBefore(floor)
			compiled.PruneBefore(floor)
			oracle.PruneBefore(floor)
			if err := naive.Apply(b.Delta); err != nil {
				t.Fatalf("Apply rejected a delta Compile accepted: %v", err)
			}
			if err := oracle.Apply(b.Delta); err != nil {
				t.Fatalf("oracle rejected a delta Compile accepted: %v", err)
			}
			compiled.ApplyCompiled(cd)
			for _, u := range txs {
				for _, v := range txs {
					want := oracle.Reachable(u, v)
					for name, g := range map[string]*sg.Graph{"applied": naive, "compiled": compiled} {
						if got := g.ReachableFromAny([]model.TxID{u}, v); got != want {
							t.Fatalf("floor %d: %s graph reaches %v from %v = %v, oracle %v", floor, name, v, u, got, want)
						}
					}
				}
			}
		}
	})
}
