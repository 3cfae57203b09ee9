package broadcast

import (
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
	if b.SharedIndex() != nil {
		t.Fatal("fresh becast already has an index")
	}
	x1, err := b.PrimeIndex()
	if err != nil {
		t.Fatal(err)
	}
	x2, err := b.PrimeIndex()
	if err != nil {
		t.Fatal(err)
	}
	if x1 != x2 {
		t.Error("PrimeIndex rebuilt the index on a second call")
	}
	if b.SharedIndex() != x1 {
		t.Error("SharedIndex does not return the primed index")
	}
}

func TestCycleIndexReportLookups(t *testing.T) {
	b := testBcast(t)
	x, err := b.PrimeIndex()
	if err != nil {
		t.Fatal(err)
	}
	wantOrdered := []model.ItemID{2, 3, 7}
	got := x.Ordered()
	if len(got) != len(wantOrdered) {
		t.Fatalf("Ordered() = %v, want %v", got, wantOrdered)
	}
	for i := range got {
		if got[i] != wantOrdered[i] {
			t.Fatalf("Ordered() = %v, want %v", got, wantOrdered)
		}
	}
	for item := model.ItemID(1); item <= 10; item++ {
		want := item == 2 || item == 3 || item == 7
		if x.Invalidates(item, 1) != want {
			t.Errorf("Invalidates(%d, 1) = %v, want %v", item, !want, want)
		}
	}
	if w, ok := x.FirstWriter(3); !ok || w.Seq != 1 {
		t.Errorf("FirstWriter(3) = %v, %v", w, ok)
	}
	if _, ok := x.FirstWriter(5); ok {
		t.Error("FirstWriter(5) found for an unreported item")
	}

	// An assembled becast: the report holds exactly the committed items.
	srv := newServer(t, 5, 1)
	ab, err := Assemble(srv, commit(t, srv, 1, 4), FlatProgram(5))
	if err != nil {
		t.Fatal(err)
	}
	ax, err := ab.PrimeIndex()
	if err != nil {
		t.Fatal(err)
	}
	if got := ax.Ordered(); len(got) != 2 || got[0] != 1 || got[1] != 4 {
		t.Errorf("assembled Ordered() = %v, want [1 4]", got)
	}
	if _, ok := ax.FirstWriter(1); !ok {
		t.Error("assembled: item 1 has no first writer")
	}
}

func TestCycleIndexBucketExpansion(t *testing.T) {
	b := testBcast(t)
	x, err := b.PrimeIndex()
	if err != nil {
		t.Fatal(err)
	}
	// Granularity 4: items 2,3 fall in bucket 0 (items 1..4), item 7 in
	// bucket 1 (items 5..8). Expansion is bucket-first-appearance order.
	want := []model.ItemID{1, 2, 3, 4, 5, 6, 7, 8}
	var got []model.ItemID
	x.EachInvalidated(4, func(it model.ItemID) { got = append(got, it) })
	if len(got) != len(want) {
		t.Fatalf("EachInvalidated(4) = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("EachInvalidated(4) = %v, want %v", got, want)
		}
	}
	for item := model.ItemID(1); item <= 10; item++ {
		want := item <= 8
		if x.Invalidates(item, 4) != want {
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
	ax, err := ab.PrimeIndex()
	if err != nil {
		t.Fatal(err)
	}
	got = got[:0]
	ax.EachInvalidated(5, func(it model.ItemID) { got = append(got, it) })
	if len(got) != 10 {
		t.Errorf("assembled EachInvalidated(5) = %v, want items 1..10", got)
	}
	for item := model.ItemID(1); item <= 11; item++ {
		if want := item <= 10; ax.Invalidates(item, 5) != want {
			t.Errorf("assembled Invalidates(%d, 5) = %v, want %v", item, !want, want)
		}
	}
}

func TestOldVersionsIndexedMatchesScan(t *testing.T) {
	b := testBcast(t)
	// Unprimed: must defer to the pointer walk.
	for item := model.ItemID(1); item <= 10; item++ {
		walked := b.OldVersionsOf(item)
		indexed := b.OldVersionsIndexed(item)
		if len(walked) != len(indexed) {
			t.Fatalf("unprimed: item %d: indexed %v != walked %v", item, indexed, walked)
		}
	}
	if _, err := b.PrimeIndex(); err != nil {
		t.Fatal(err)
	}
	for item := model.ItemID(1); item <= 10; item++ {
		walked := b.OldVersionsOf(item)
		indexed := b.OldVersionsIndexed(item)
		if len(walked) != len(indexed) {
			t.Fatalf("primed: item %d: indexed %v != walked %v", item, indexed, walked)
		}
		for i := range walked {
			if walked[i] != indexed[i] {
				t.Fatalf("primed: item %d: indexed %v != walked %v", item, indexed, walked)
			}
		}
	}
}

func TestCompiledDeltaAttached(t *testing.T) {
	b := testBcast(t)
	x, err := b.PrimeIndex()
	if err != nil {
		t.Fatal(err)
	}
	cd := x.Delta()
	if cd == nil {
		t.Fatal("non-empty delta compiled to nil")
	}
	if len(cd.Nodes) != 2 || len(cd.Edges) != 1 {
		t.Errorf("compiled delta nodes=%d edges=%d, want 2/1", len(cd.Nodes), len(cd.Edges))
	}
	// Empty delta: Delta() must be nil so consumers can skip integration.
	entries := []Entry{{Item: 1, Overflow: -1}}
	eb, err := New(1, nil, sg.Delta{Cycle: 1}, entries, nil, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := eb.PrimeIndex()
	if err != nil {
		t.Fatal(err)
	}
	if ex.Delta() != nil {
		t.Error("empty delta compiled to a non-nil CompiledDelta")
	}
}
