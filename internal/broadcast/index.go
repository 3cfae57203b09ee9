package broadcast

import (
	"fmt"
	"sync"

	"bpush/internal/model"
	"bpush/internal/sg"
)

// CycleIndex is the shared, immutable set of derived control-information
// structures for one becast: the invalidation report as an ordered slice
// plus an O(1) membership/first-writer map, the bucket-granularity
// expansions of §7 (memoized per granularity), the serialization-graph
// delta compiled into the adjacency form the SGT method integrates, and
// the overflow-segment spans the multiversion read rule walks.
//
// The paper's control information is broadcast once per cycle and consumed
// by every listening client; a CycleIndex is the client-side analogue —
// derived once per cycle (by the producer, under the cycle source's lock)
// and then consumed read-only by every client of the shared stream, so
// fleet cost stays O(server-work + clients × readset-work) instead of
// re-deriving O(report-size) structures per client per cycle.
//
// Ownership and immutability rules:
//
//   - A CycleIndex is built by PrimeIndex exactly once, before the becast
//     is shared; everything reachable from it is read-only afterwards.
//   - Consumers must never mutate returned slices; they alias the index.
//   - The per-granularity bucket views are memoized on first use behind a
//     mutex (different schemes ask for different granularities); their
//     content is a pure function of (report, granularity, data-segment
//     length), so which consumer builds them is unobservable.
//   - A becast reconstructed from a network frame (wire.Decode, the fault
//     injector's corrupt path) carries NO index: the index never crosses
//     the wire, so a subscriber that heard a damaged-then-reassembled
//     frame falls back to building local structures from the decoded
//     content it actually trusts.
type CycleIndex struct {
	entries int // data-segment length, the §7 bucket-expansion bound

	// ordered is the invalidation report's items, ascending (report order).
	ordered []model.ItemID
	// writers maps each reported item to its first writer (Claim 2).
	writers map[model.ItemID]model.TxID

	// delta is the compiled serialization-graph delta, nil when the becast
	// carries an empty delta.
	delta *sg.CompiledDelta

	// spans locates each item's overflow group: Overflow[start:end].
	spans map[model.ItemID]overflowSpan

	mu      sync.RWMutex
	buckets map[int]*bucketView // memoized per granularity (> 1)
}

type overflowSpan struct{ start, end int }

// bucketView is one granularity's derived report: the updated-bucket set
// and the full item expansion, in report order with buckets deduplicated
// at first appearance and capped at the data-segment length — exactly the
// sequence a per-client bucket walk produces.
type bucketView struct {
	set      map[int]struct{}
	expanded []model.ItemID
}

// NewCycleIndex derives the shared index for b. It fails only when the
// becast's serialization-graph delta is invalid (a commit-order violation,
// impossible for server-assembled becasts).
//
//lint:hotpath index derivation runs once per produced cycle, under the production lock
func NewCycleIndex(b *Bcast) (*CycleIndex, error) {
	//lint:allow hotalloc the CycleIndex is the cycle's retained shared product; clients may still hold the previous index, so it cannot be recycled
	x := &CycleIndex{
		entries: len(b.Entries),
		//lint:allow hotalloc pre-sized once per cycle into the retained index, shared by every client
		writers: make(map[model.ItemID]model.TxID, len(b.Report)),
	}
	if len(b.Report) > 0 {
		//lint:allow hotalloc pre-sized once per cycle into the retained index, shared by every client
		x.ordered = make([]model.ItemID, 0, len(b.Report))
		for _, e := range b.Report {
			//lint:allow hotalloc the slice above is pre-sized to the report, so these appends never grow it
			x.ordered = append(x.ordered, e.Item)
			//lint:allow hotalloc the map above is pre-sized to the report, so these inserts never grow it
			x.writers[e.Item] = e.FirstWriter
		}
	}
	if len(b.Delta.Nodes) > 0 || len(b.Delta.Edges) > 0 {
		cd, err := sg.Compile(b.Delta)
		if err != nil {
			return nil, fmt.Errorf("broadcast: index delta: %w", err)
		}
		x.delta = cd
	}
	if len(b.Overflow) > 0 {
		//lint:allow hotalloc built once per cycle into the retained index, shared by every client
		x.spans = make(map[model.ItemID]overflowSpan)
		for i := 0; i < len(b.Overflow); {
			j := i + 1
			for j < len(b.Overflow) && b.Overflow[j].Item == b.Overflow[i].Item {
				j++
			}
			//lint:allow hotalloc one span entry per overflow group, once per cycle, into the retained index
			x.spans[b.Overflow[i].Item] = overflowSpan{start: i, end: j}
			i = j
		}
	}
	return x, nil
}

// Ordered returns the invalidation report's items in ascending order. The
// slice aliases the index and must not be modified.
func (x *CycleIndex) Ordered() []model.ItemID { return x.ordered }

// FirstWriter returns the first transaction that wrote item this cycle
// (meaningful at item granularity only).
func (x *CycleIndex) FirstWriter(item model.ItemID) (model.TxID, bool) {
	t, ok := x.writers[item]
	return t, ok
}

// Invalidates reports whether the cycle's report invalidates item at the
// given granularity: direct membership at item granularity, shared-bucket
// membership under the §7 bucket extension.
func (x *CycleIndex) Invalidates(item model.ItemID, granularity int) bool {
	if granularity > 1 {
		bv := x.bucketView(granularity)
		_, ok := bv.set[(int(item)-1)/granularity]
		return ok
	}
	_, ok := x.writers[item]
	return ok
}

// EachInvalidated calls fn for every item the report invalidates at the
// given granularity, in the deterministic report order (ascending items;
// under bucket granularity, each updated bucket expanded once, capped at
// the data-segment length).
func (x *CycleIndex) EachInvalidated(granularity int, fn func(model.ItemID)) {
	if granularity <= 1 {
		for _, item := range x.ordered {
			fn(item)
		}
		return
	}
	for _, item := range x.bucketView(granularity).expanded {
		fn(item)
	}
}

// Delta returns the compiled serialization-graph delta, or nil when this
// cycle's delta is empty (integrating nothing is a no-op).
func (x *CycleIndex) Delta() *sg.CompiledDelta { return x.delta }

// OldVersionsOf returns the becast's overflow group for item — the same
// slice Bcast.OldVersionsOf scans for — via the precomputed span index.
// The overflow slice is passed by the owning becast; the returned slice
// aliases it and must not be modified.
func (x *CycleIndex) oldVersions(overflow []OldVersion, entryOff int) []OldVersion {
	if entryOff < 0 || x.spans == nil {
		return nil
	}
	sp, ok := x.spans[overflow[entryOff].Item]
	if !ok || sp.start != entryOff {
		// A pointer into the middle of a group (malformed input): defer to
		// the caller's linear scan.
		return nil
	}
	return overflow[sp.start:sp.end]
}

// bucketView returns the memoized granularity view, building it on first
// use. Safe for concurrent consumers; the content is a pure function of
// the report, so the winner of the build race is unobservable.
func (x *CycleIndex) bucketView(granularity int) *bucketView {
	x.mu.RLock()
	bv := x.buckets[granularity]
	x.mu.RUnlock()
	if bv != nil {
		return bv
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if bv := x.buckets[granularity]; bv != nil {
		return bv
	}
	//lint:allow hotalloc memoized once per (cycle, granularity); every bucket query of the cycle reuses it
	bv = &bucketView{set: make(map[int]struct{}, len(x.ordered))}
	for _, item := range x.ordered {
		bk := (int(item) - 1) / granularity
		if _, dup := bv.set[bk]; dup {
			continue
		}
		//lint:allow hotalloc inserts into the memoized per-cycle bucket view, built once and reused
		bv.set[bk] = struct{}{}
		lo := bk*granularity + 1
		hi := lo + granularity - 1
		if hi > x.entries {
			hi = x.entries
		}
		for i := lo; i <= hi; i++ {
			//lint:allow hotalloc appends into the memoized per-cycle bucket view, built once and reused
			bv.expanded = append(bv.expanded, model.ItemID(i))
		}
	}
	if x.buckets == nil {
		x.buckets = make(map[int]*bucketView, 2)
	}
	x.buckets[granularity] = bv
	return bv
}

// PrimeIndex derives and attaches the shared CycleIndex, once; subsequent
// calls return the existing index. It must be called before the becast is
// handed to concurrent consumers (the cycle source primes under its
// production lock). Becasts that were never primed — every becast decoded
// from a network frame — report a nil SharedIndex and consumers build
// their own local structures instead.
func (b *Bcast) PrimeIndex() (*CycleIndex, error) {
	if x := b.sharedIndex.Load(); x != nil {
		return x, nil
	}
	x, err := NewCycleIndex(b)
	if err != nil {
		return nil, err
	}
	b.sharedIndex.Store(x)
	return x, nil
}

// SharedIndex returns the becast's shared control-info index, or nil when
// none was primed (decoded frames, standalone construction).
func (b *Bcast) SharedIndex() *CycleIndex { return b.sharedIndex.Load() }

// OldVersionsIndexed is OldVersionsOf served from the shared index's span
// table when one is primed, falling back to the pointer-walk otherwise.
// The returned slice aliases the becast and must not be modified.
func (b *Bcast) OldVersionsIndexed(item model.ItemID) []OldVersion {
	x := b.sharedIndex.Load()
	if x == nil {
		return b.OldVersionsOf(item)
	}
	p := b.Position(item)
	if p < 0 {
		return nil
	}
	off := int(b.Entries[p].Overflow)
	if off < 0 {
		return nil
	}
	if ovs := x.oldVersions(b.Overflow, off); ovs != nil {
		return ovs
	}
	return b.OldVersionsOf(item)
}
