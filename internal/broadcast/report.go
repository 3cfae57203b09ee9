package broadcast

import (
	"fmt"

	"bpush/internal/model"
	"bpush/internal/sg"
)

// The control information of a cycle is read in place. The paper airs
// the invalidation report once per cycle and every client reads those
// same lines (§3.1, §3.3); the report is sorted by item (New rejects any
// other order), so membership and first writer are binary searches, and
// the §7 bucket variant is one walk of the sorted lines. Produced and
// decoded becasts answer on this one path, and nothing is derived per
// cycle but the serialization-graph delta's check (PrimeIndex).

// bucket returns the report bucket of item at granularity g (> 1), or
// the item's own line at item granularity. It is non-decreasing in
// item, so the sorted report is sorted by bucket too.
func bucket(item model.ItemID, g int) int {
	return (int(item) - 1) / max(g, 1)
}

// searchReport returns the index of the first report line whose bucket
// at granularity g is at least bk, or len(Report).
func (b *Bcast) searchReport(bk, g int) int {
	lo, hi := 0, len(b.Report)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if bucket(b.Report[m].Item, g) < bk {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// FirstWriter returns the first transaction that wrote item during the
// previous cycle (Claim 2), and whether the report lists the item.
func (b *Bcast) FirstWriter(item model.ItemID) (model.TxID, bool) {
	i := b.searchReport(bucket(item, 1), 1)
	if i < len(b.Report) && b.Report[i].Item == item {
		return b.Report[i].FirstWriter, true
	}
	return model.TxID{}, false
}

// Invalidates reports whether this cycle's report invalidates item at the
// given granularity: the item's own line at item granularity (g <= 1),
// any line in the item's bucket of g consecutive items under the §7
// bucket extension.
func (b *Bcast) Invalidates(item model.ItemID, g int) bool {
	bk := bucket(item, g)
	i := b.searchReport(bk, g)
	return i < len(b.Report) && bucket(b.Report[i].Item, g) == bk
}

// EachInvalidated calls fn for every item the report invalidates at the
// given granularity, in ascending order: the report's items at item
// granularity; under bucket granularity every item of each updated
// bucket, once, capped at the data-segment length (the bucket extension
// assumes the flat program, where item i occupies slot i-1). Lines of one
// bucket are adjacent in the sorted report, so only a bucket's first line
// expands.
func (b *Bcast) EachInvalidated(g int, fn func(model.ItemID)) {
	if g <= 1 {
		for _, e := range b.Report {
			fn(e.Item)
		}
		return
	}
	for i, e := range b.Report {
		bk := bucket(e.Item, g)
		if i > 0 && bucket(b.Report[i-1].Item, g) == bk {
			continue
		}
		lo := bk*g + 1
		for it := lo; it < lo+g && it <= len(b.Entries); it++ {
			fn(model.ItemID(it))
		}
	}
}

// PrimeIndex checks the becast's serialization-graph delta with
// sg.Compile, once, and returns the compiled delta the SGT method stores.
// Every later call returns the same compiled delta (or error) without
// checking again. The cycle producer primes each becast before it
// publishes it, so a shared stream pays the check once per cycle; a
// decoded becast is primed by its first SGT consumer. Safe for concurrent
// use: after the first call, callers only load an atomic flag.
//
//lint:hotpath the delta check runs once per produced cycle and once per decoded SGT cycle
func (b *Bcast) PrimeIndex() (*sg.CompiledDelta, error) {
	if !b.primed.Load() {
		b.prime()
	}
	if b.deltaErr != nil {
		return nil, b.deltaErr
	}
	return &b.delta, nil
}

// prime runs the check under the becast's lock; the flag's store
// publishes the result to the lock-free loads in PrimeIndex.
func (b *Bcast) prime() {
	b.primeMu.Lock()
	defer b.primeMu.Unlock()
	if b.primed.Load() {
		return
	}
	var err error
	if err = checkDeltaCycle(b.Cycle, b.Delta); err != nil {
		b.deltaErr = err
	} else if b.delta, err = sg.Compile(b.Delta); err != nil {
		b.deltaErr = fmt.Errorf("broadcast: cycle %v delta: %w", b.Cycle, err)
	}
	b.primed.Store(true)
}

// checkDeltaCycle rejects a delta that declares transactions or edges of
// another cycle than its becast's. The delta describes the commits that
// becast airs, and an SGT client sizes its graph by the delta's cycle, so
// a far-off one would have it allocate for every cycle in between. New
// checks it for decoded becasts and prime for ones built around New.
func checkDeltaCycle(cycle model.Cycle, d sg.Delta) error {
	if d.Cycle != cycle && (len(d.Nodes) > 0 || len(d.Edges) > 0) {
		return fmt.Errorf("broadcast: cycle %v delta claims cycle %v", cycle, d.Cycle)
	}
	return nil
}
