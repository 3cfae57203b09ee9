package broadcast

import (
	"slices"
	"sync"
	"testing"

	"bpush/internal/model"
	"bpush/internal/sg"
)

// testBcast builds a small handcrafted becast: 10 flat items, a report
// over items 2, 3 and 7, old versions for items 3 and 7, and a two-node
// delta with one edge.
func testBcast(t *testing.T) *Bcast {
	t.Helper()
	tx := func(c, s int) model.TxID { return model.TxID{Cycle: model.Cycle(c), Seq: uint32(s)} }
	entries := make([]Entry, 10)
	for i := range entries {
		entries[i] = Entry{
			Item:     model.ItemID(i + 1),
			Version:  model.Version{Value: model.Value(i), Cycle: 5},
			Overflow: -1,
		}
	}
	overflow := []OldVersion{
		{Item: 3, Version: model.Version{Value: 30, Cycle: 4}},
		{Item: 3, Version: model.Version{Value: 29, Cycle: 3}},
		{Item: 7, Version: model.Version{Value: 70, Cycle: 4}},
	}
	entries[2].Overflow = 0
	entries[6].Overflow = 2
	report := []InvalidationEntry{
		{Item: 2, FirstWriter: tx(4, 0)},
		{Item: 3, FirstWriter: tx(4, 1)},
		{Item: 7, FirstWriter: tx(4, 0)},
	}
	// A delta is its own cycle's in-edge block: every edge points into
	// a transaction of cycle 5.
	delta := sg.Delta{
		Cycle: 5,
		Nodes: []model.TxID{tx(5, 0), tx(5, 1)},
		Edges: []sg.Edge{{From: tx(4, 0), To: tx(5, 1)}},
	}
	b, err := New(5, report, delta, entries, overflow, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestPrimeIndexIdempotent(t *testing.T) {
	b := testBcast(t)
	x1, err := b.PrimeIndex()
	if err != nil {
		t.Fatal(err)
	}
	x2, err := b.PrimeIndex()
	if err != nil {
		t.Fatal(err)
	}
	if x1 != x2 {
		t.Error("PrimeIndex compiled the delta again on a second call")
	}
	if x1.Cycle != b.Delta.Cycle || !slices.Equal(x1.Nodes, b.Delta.Nodes) || !slices.Equal(x1.Edges, b.Delta.Edges) {
		t.Errorf("compiled delta %+v, want the becast's %+v", *x1, b.Delta)
	}
}

// TestPrimeIndexConcurrent primes one shared becast from many goroutines
// at once, as a fleet's SGT clients do with a decoded cycle: every caller
// gets the one compiled delta, or the one rejection. Run it with -race.
func TestPrimeIndexConcurrent(t *testing.T) {
	tx := func(c, s int) model.TxID { return model.TxID{Cycle: model.Cycle(c), Seq: uint32(s)} }
	bad := testBcast(t)
	bad.Delta.Edges = append(bad.Delta.Edges, sg.Edge{From: tx(5, 1), To: tx(5, 0)}) // out of order
	for _, b := range []*Bcast{testBcast(t), bad} {
		const n = 16
		got := make([]*sg.CompiledDelta, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i], errs[i] = b.PrimeIndex()
			}(i)
		}
		wg.Wait()
		want, wantErr := b.PrimeIndex()
		if (wantErr != nil) != (b == bad) {
			t.Fatalf("PrimeIndex error %v, want one exactly for the malformed delta", wantErr)
		}
		for i := range got {
			if got[i] != want || errs[i] != wantErr {
				t.Fatalf("caller %d got %p, %v; want %p, %v", i, got[i], errs[i], want, wantErr)
			}
		}
	}
}

// TestReportLookups reads the report in place at item granularity.
func TestReportLookups(t *testing.T) {
	b := testBcast(t)
	var got []model.ItemID
	b.EachInvalidated(1, func(it model.ItemID) { got = append(got, it) })
	if want := []model.ItemID{2, 3, 7}; !slices.Equal(got, want) {
		t.Fatalf("EachInvalidated(1) = %v, want %v", got, want)
	}
	for item := model.ItemID(0); item <= 11; item++ {
		want := item == 2 || item == 3 || item == 7
		if b.Invalidates(item, 1) != want {
			t.Errorf("Invalidates(%d, 1) = %v, want %v", item, !want, want)
		}
		if b.Invalidates(item, 0) != want {
			t.Errorf("Invalidates(%d, 0) = %v, want %v", item, !want, want)
		}
	}
	if w, ok := b.FirstWriter(3); !ok || w.Seq != 1 {
		t.Errorf("FirstWriter(3) = %v, %v", w, ok)
	}
	if _, ok := b.FirstWriter(5); ok {
		t.Error("FirstWriter(5) found for an unreported item")
	}

	// An assembled becast: the report holds exactly the committed items.
	srv := newServer(t, 5, 1)
	ab, err := Assemble(srv, commit(t, srv, 1, 4), FlatProgram(5))
	if err != nil {
		t.Fatal(err)
	}
	got = got[:0]
	ab.EachInvalidated(1, func(it model.ItemID) { got = append(got, it) })
	if want := []model.ItemID{1, 4}; !slices.Equal(got, want) {
		t.Errorf("assembled EachInvalidated(1) = %v, want %v", got, want)
	}
	if _, ok := ab.FirstWriter(1); !ok {
		t.Error("assembled: item 1 has no first writer")
	}
}

// TestReportBucketExpansion reads the report in place under the §7
// bucket extension.
func TestReportBucketExpansion(t *testing.T) {
	b := testBcast(t)
	// Granularity 4: items 2,3 fall in bucket 0 (items 1..4), item 7 in
	// bucket 1 (items 5..8). Each bucket expands once, in item order.
	var got []model.ItemID
	b.EachInvalidated(4, func(it model.ItemID) { got = append(got, it) })
	if want := []model.ItemID{1, 2, 3, 4, 5, 6, 7, 8}; !slices.Equal(got, want) {
		t.Fatalf("EachInvalidated(4) = %v, want %v", got, want)
	}
	for item := model.ItemID(1); item <= 10; item++ {
		want := item <= 8
		if b.Invalidates(item, 4) != want {
			t.Errorf("Invalidates(%d, 4) = %v, want %v", item, !want, want)
		}
	}

	// An assembled flat becast, granularity 5: items 1, 2 fall in bucket
	// 0 (slots 0..4), item 9 in bucket 1 (slots 5..9).
	srv := newServer(t, 10, 1)
	ab, err := Assemble(srv, commit(t, srv, 1, 2, 9), FlatProgram(10))
	if err != nil {
		t.Fatal(err)
	}
	got = got[:0]
	ab.EachInvalidated(5, func(it model.ItemID) { got = append(got, it) })
	if len(got) != 10 {
		t.Errorf("assembled EachInvalidated(5) = %v, want items 1..10", got)
	}
	for item := model.ItemID(1); item <= 11; item++ {
		if want := item <= 10; ab.Invalidates(item, 5) != want {
			t.Errorf("assembled Invalidates(%d, 5) = %v, want %v", item, !want, want)
		}
	}
	// The expansion stops at the data segment: granularity 8 over 10
	// items puts item 9 in the short bucket 9..10.
	got = got[:0]
	ab.EachInvalidated(8, func(it model.ItemID) { got = append(got, it) })
	if want := []model.ItemID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}; !slices.Equal(got, want) {
		t.Errorf("assembled EachInvalidated(8) = %v, want %v", got, want)
	}
}

// TestOldVersionsOfGroups pins the overflow pointer walk on the
// handcrafted becast: each item's group, newest first, and nothing for
// an item without older versions on air.
func TestOldVersionsOfGroups(t *testing.T) {
	b := testBcast(t)
	for item := model.ItemID(0); item <= 11; item++ {
		var want []OldVersion
		switch item {
		case 3:
			want = b.Overflow[0:2]
		case 7:
			want = b.Overflow[2:3]
		}
		if got := b.OldVersionsOf(item); !slices.Equal(got, want) {
			t.Errorf("OldVersionsOf(%d) = %v, want %v", item, got, want)
		}
	}
}

func TestCompiledDeltaAttached(t *testing.T) {
	b := testBcast(t)
	cd, err := b.PrimeIndex()
	if err != nil {
		t.Fatal(err)
	}
	if len(cd.Nodes) != 2 || len(cd.Edges) != 1 {
		t.Errorf("compiled delta nodes=%d edges=%d, want 2/1", len(cd.Nodes), len(cd.Edges))
	}
	// An empty delta compiles to an empty block: storing it adds no edge.
	entries := []Entry{{Item: 1, Overflow: -1}}
	eb, err := New(1, nil, sg.Delta{Cycle: 1}, entries, nil, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := eb.PrimeIndex()
	if err != nil {
		t.Fatal(err)
	}
	if ex.Cycle != 1 || len(ex.Nodes) != 0 || len(ex.Edges) != 0 {
		t.Errorf("empty delta compiled to %+v", *ex)
	}
}

// TestNewRejectsUnsortedReport pins the order the report queries search
// by: a report out of item order, or repeating an item, is rejected.
func TestNewRejectsUnsortedReport(t *testing.T) {
	entries := []Entry{{Item: 1, Overflow: -1}, {Item: 2, Overflow: -1}, {Item: 3, Overflow: -1}}
	line := func(item model.ItemID) InvalidationEntry { return InvalidationEntry{Item: item} }
	for _, report := range [][]InvalidationEntry{
		{line(2), line(1)},
		{line(1), line(3), line(2)},
		{line(2), line(2)},
		{line(1), line(3), line(3)},
	} {
		if _, err := New(2, report, sg.Delta{}, entries, nil, 0, 0); err == nil {
			t.Errorf("New accepted report %v", report)
		}
	}
	if _, err := New(2, []InvalidationEntry{line(1), line(3)}, sg.Delta{}, entries, nil, 0, 0); err != nil {
		t.Errorf("New rejected an ascending report: %v", err)
	}
}

// TestNewRejectsDeltaOfAnotherCycle: a delta that declares transactions
// or edges airs with its own cycle's becast; an empty delta of any cycle
// is no claim and passes. A becast built around New meets the same check
// when it is primed.
func TestNewRejectsDeltaOfAnotherCycle(t *testing.T) {
	entries := []Entry{{Item: 1, Overflow: -1}, {Item: 2, Overflow: -1}}
	far := model.Cycle(5 + 1<<20)
	for _, d := range []sg.Delta{
		{Cycle: far, Nodes: []model.TxID{{Cycle: far}}},
		{Cycle: 4, Nodes: []model.TxID{{Cycle: 4}, {Cycle: 4, Seq: 1}}, Edges: []sg.Edge{{From: model.TxID{Cycle: 4}, To: model.TxID{Cycle: 4, Seq: 1}}}},
		{Cycle: 6, Edges: []sg.Edge{{From: model.TxID{Cycle: 5}, To: model.TxID{Cycle: 6}}}},
	} {
		if _, err := New(5, nil, d, entries, nil, 0, 0); err == nil {
			t.Errorf("New accepted a delta of cycle %v on cycle 5", d.Cycle)
		}
		b, err := New(5, nil, sg.Delta{}, entries, nil, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		b.Delta = d
		if _, err := b.PrimeIndex(); err == nil {
			t.Errorf("PrimeIndex accepted a delta of cycle %v on cycle 5", d.Cycle)
		}
	}
	for _, d := range []sg.Delta{{}, {Cycle: far}, {Cycle: 5, Nodes: []model.TxID{{Cycle: 5}}}} {
		if _, err := New(5, nil, d, entries, nil, 0, 0); err != nil {
			t.Errorf("New rejected delta %+v: %v", d, err)
		}
	}
}

// TestReportQueriesAllocateNothing pins the in-place reads at exactly 0
// objects: membership at item and bucket granularity, both expansions,
// and a repeated PrimeIndex.
func TestReportQueriesAllocateNothing(t *testing.T) {
	b := testBcast(t)
	if _, err := b.PrimeIndex(); err != nil {
		t.Fatal(err)
	}
	n := 0
	count := func(model.ItemID) { n++ }
	for name, fn := range map[string]func(){
		"Invalidates":       func() { _ = b.Invalidates(3, 1) || b.Invalidates(6, 4) },
		"FirstWriter":       func() { _, _ = b.FirstWriter(7) },
		"EachInvalidated/1": func() { b.EachInvalidated(1, count) },
		"EachInvalidated/4": func() { b.EachInvalidated(4, count) },
		"PrimeIndex/primed": func() { _, _ = b.PrimeIndex() },
	} {
		if got := testing.AllocsPerRun(100, fn); got != 0 {
			t.Errorf("%s allocates %v objects per call, want 0", name, got)
		}
	}
	if n == 0 {
		t.Fatal("expansions called back nothing")
	}
}
