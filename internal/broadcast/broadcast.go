// Package broadcast assembles becasts: the per-cycle broadcast programs the
// server puts on air. A becast carries, in order, (1) a control segment —
// the invalidation report (augmented with first-writer transaction IDs for
// SGT) and the serialization-graph delta — and (2) the data segment, one
// entry per item in broadcast order, each entry carrying the item's current
// version, its last writer, and (for the overflow organization of §3.2,
// Figure 2b) a pointer to the item's older versions stored in overflow
// buckets at the end of the becast.
//
// With the overflow organization the offset of every item from the start of
// the becast is fixed, so clients can use a locally stored directory
// instead of an on-air index; this is the organization implemented here and
// used by the evaluation. A Bcast whose data segment is a contiguous run of
// items (a flat program, an h-interval chunk) finds every slot by that same
// arithmetic and keeps no slot index. The clustered organization of
// Figure 2(a) is covered by the analytic size accounting (see sizing.go).
package broadcast

import (
	"fmt"
	"sync"
	"sync/atomic"

	"bpush/internal/model"
	"bpush/internal/server"
	"bpush/internal/sg"
)

// InvalidationEntry is one line of the invalidation report: an item updated
// during the previous cycle and the first transaction that wrote it (the
// target of the precedence edge a query must add, per Claim 2; only the
// SGT method consumes the writer field).
type InvalidationEntry struct {
	Item        model.ItemID
	FirstWriter model.TxID
}

// Entry is one data-segment slot: the current version of an item plus the
// index of its first older version in the overflow segment (-1 when the
// item has no older versions on air). The pointer is an int32, as on the
// wire; it sits beside the item so the two share one 8-byte word and an
// entry takes 40 bytes.
type Entry struct {
	Item     model.ItemID
	Overflow int32
	Version  model.Version
}

// OldVersion is one overflow-segment slot.
type OldVersion struct {
	Item    model.ItemID
	Version model.Version
}

// Bcast is the full content of one broadcast cycle.
type Bcast struct {
	Cycle model.Cycle
	// Report is the invalidation report, strictly ascending by item:
	// the report queries (report.go) binary-search it.
	Report []InvalidationEntry
	// Delta is the serialization-graph difference broadcast for SGT.
	Delta sg.Delta
	// Entries is the data segment in broadcast order. With a flat
	// organization entry i carries item i+1, and an h-interval chunk is a
	// run of consecutive items; broadcast-disk programs may repeat hot
	// items and a shuffled program may list items in any order.
	Entries []Entry
	// Overflow holds older versions, grouped per item in reverse
	// chronological order, after the data segment.
	Overflow []OldVersion
	// NumCommitted is the number of server transactions whose effects
	// first appear in this becast.
	NumCommitted int
	// TotalItems is the number of items in the database. With the
	// h-interval organization (§7) a becast carries only a chunk of the
	// item space, so TotalItems can exceed Items(); clients use it to
	// distinguish "not on air this interval" from "no such item".
	TotalItems int

	// first is the item in slot 0 when the data segment is a contiguous
	// ascending run (entry i carries item first+i: a flat program or an
	// h-interval chunk). positions is nil then, and every slot lookup is
	// the arithmetic item-first, as §3.2's fixed offsets allow.
	first model.ItemID
	// positions lists every data-segment slot carrying an item, in
	// ascending order; built only for a program that is not a contiguous
	// run (broadcast-disk repeats, shuffled programs).
	positions map[model.ItemID][]int

	// PrimeIndex's result: Delta checked by sg.Compile, or deltaErr its
	// rejection, set once under primeMu before primed is stored.
	primeMu  sync.Mutex
	primed   atomic.Bool
	delta    sg.CompiledDelta
	deltaErr error
}

// Program is the order in which items occupy data-segment slots. A flat
// program lists each item exactly once in key order.
type Program []model.ItemID

// FlatProgram returns the flat organization: items 1..d in key order, each
// broadcast once per cycle, so every item's offset is fixed across cycles.
func FlatProgram(d int) Program {
	p := make(Program, d)
	for i := range p {
		p[i] = model.ItemID(i + 1)
	}
	return p
}

// Assemble builds the becast of the server's current cycle from the log of
// the transactions committed during the previous cycle. Pass a nil log for
// the very first cycle (no updates yet). The program must reference only
// items in 1..DBSize and include every item at least once.
func Assemble(srv *server.Server, log *server.CycleLog, program Program) (*Bcast, error) {
	return assemble(srv, log, program, true)
}

// AssembleChunk builds a *partial* becast carrying only the items of the
// given program — the h-interval organization of §7, where invalidation
// reports (and fresh values) go on air every h-th of a broadcast period.
// Items outside the chunk stay addressable through TotalItems.
func AssembleChunk(srv *server.Server, log *server.CycleLog, program Program) (*Bcast, error) {
	return assemble(srv, log, program, false)
}

func assemble(srv *server.Server, log *server.CycleLog, program Program, requireFull bool) (*Bcast, error) {
	cycle := srv.Cycle()
	b := &Bcast{
		Cycle:      cycle,
		TotalItems: srv.DBSize(),
		Entries:    make([]Entry, len(program)),
	}
	if log != nil {
		if log.Cycle != cycle {
			return nil, fmt.Errorf("broadcast: log for %v but server at %v", log.Cycle, cycle)
		}
		b.Delta = log.Delta
		b.NumCommitted = log.NumCommitted
		b.Report = make([]InvalidationEntry, 0, len(log.Updated))
		for _, item := range log.Updated {
			b.Report = append(b.Report, InvalidationEntry{
				Item:        item,
				FirstWriter: log.FirstWriter[item],
			})
		}
	}

	for i, item := range program {
		b.Entries[i].Item = item
	}
	b.first, b.positions = indexPositions(b.Entries)
	for i, item := range program {
		versions, err := srv.Versions(item)
		if err != nil {
			return nil, fmt.Errorf("broadcast: program slot %d: %w", i, err)
		}
		off := int32(-1)
		if first := b.Position(item); first < i {
			// Repeated slot (broadcast-disk program): point at the
			// already-emitted group.
			off = b.Entries[first].Overflow
		} else if len(versions) > 1 {
			off = int32(len(b.Overflow))
			// Reverse chronological: newest old version first, so a
			// client scanning from the pointer stops at the first
			// version with cycle <= its start cycle.
			for j := len(versions) - 2; j >= 0; j-- {
				b.Overflow = append(b.Overflow, OldVersion{Item: item, Version: versions[j]})
			}
		}
		b.Entries[i].Version = versions[len(versions)-1]
		b.Entries[i].Overflow = off
	}
	if requireFull && b.Items() != srv.DBSize() {
		return nil, fmt.Errorf("broadcast: program covers %d of %d items", b.Items(), srv.DBSize())
	}
	if len(b.Entries) == 0 {
		return nil, fmt.Errorf("broadcast: empty program")
	}
	return b, nil
}

// indexPositions locates the data-segment slots. When entry i carries item
// first+i for every i (a flat program, an h-interval chunk) it returns
// first and a nil map, having allocated nothing: slot lookups are then
// arithmetic. Otherwise it maps every item to the ascending slots carrying
// it. One backing array holds every slot number, and an item's first
// occurrence appends into its own one-slot window of it, so only
// broadcast-disk repeats allocate a slice of their own.
func indexPositions(entries []Entry) (model.ItemID, map[model.ItemID][]int) {
	if contiguous(entries) {
		if len(entries) == 0 {
			return 0, nil
		}
		return entries[0].Item, nil
	}
	//lint:allow hotalloc only a program that is not a contiguous run (broadcast-disk, shuffled) gets here; flat and chunk decodes never do
	slots := make([]int, len(entries))
	//lint:allow hotalloc only a program that is not a contiguous run (broadcast-disk, shuffled) gets here; flat and chunk decodes never do
	positions := make(map[model.ItemID][]int, len(entries))
	for i, e := range entries {
		ps, ok := positions[e.Item]
		if !ok {
			ps = slots[i : i : i+1]
		}
		//lint:allow hotalloc fills the map sized above; the append allocates only for a broadcast-disk repeat
		positions[e.Item] = append(ps, i)
	}
	return 0, positions
}

// contiguous reports whether entry i carries item entries[0].Item+i for
// every i. The sum is taken in uint64, so a run that would pass
// math.MaxUint32 and wrap to item 0 is not contiguous.
func contiguous(entries []Entry) bool {
	if len(entries) == 0 {
		return true
	}
	first := uint64(entries[0].Item)
	for i, e := range entries {
		if uint64(e.Item) != first+uint64(i) {
			return false
		}
	}
	return true
}

// New reconstructs a becast from its parts (the wire decoder's entry
// point). Slot positions follow from the entry order: arithmetic for a
// contiguous run, a map otherwise. totalItems may be 0, in which case the
// becast is assumed complete. The report must be strictly ascending by
// item, as every producer airs it: the report queries search it. A
// delta that declares transactions or edges must be of this cycle.
func New(cycle model.Cycle, report []InvalidationEntry, delta sg.Delta, entries []Entry, overflow []OldVersion, numCommitted, totalItems int) (*Bcast, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("broadcast: empty data segment")
	}
	//lint:allow hotalloc the becast is the decode's product, retained by its listener for the cycle
	b := &Bcast{
		Cycle:        cycle,
		Report:       report,
		Delta:        delta,
		Entries:      entries,
		Overflow:     overflow,
		NumCommitted: numCommitted,
		TotalItems:   totalItems,
	}
	for i, e := range entries {
		if int(e.Overflow) >= len(overflow) || e.Overflow < -1 {
			return nil, fmt.Errorf("broadcast: slot %d overflow pointer %d out of range", i, e.Overflow)
		}
	}
	for i := 1; i < len(report); i++ {
		if report[i].Item <= report[i-1].Item {
			return nil, fmt.Errorf("broadcast: report line %d (%v) not after %v", i, report[i].Item, report[i-1].Item)
		}
	}
	if err := checkDeltaCycle(cycle, delta); err != nil {
		return nil, err
	}
	b.first, b.positions = indexPositions(entries)
	if b.TotalItems == 0 {
		b.TotalItems = b.Items()
	}
	return b, nil
}

// Position returns the first data-segment slot carrying item, or -1.
func (b *Bcast) Position(item model.ItemID) int {
	if b.positions == nil {
		if item >= b.first && uint64(item-b.first) < uint64(len(b.Entries)) {
			return int(item - b.first)
		}
		return -1
	}
	if ps, ok := b.positions[item]; ok {
		return ps[0]
	}
	return -1
}

// NextPosition returns the first data-segment slot >= pos carrying item,
// or -1 when the item's remaining occurrences this cycle have all gone by
// (or the item is not on air). With a flat program this is Position(item)
// when still ahead; broadcast-disk programs give hot items several chances
// per cycle.
func (b *Bcast) NextPosition(item model.ItemID, pos int) int {
	if b.positions == nil {
		if p := b.Position(item); p >= pos {
			return p
		}
		return -1
	}
	ps, ok := b.positions[item]
	if !ok {
		return -1
	}
	lo, hi := 0, len(ps)
	for lo < hi {
		mid := (lo + hi) / 2
		if ps[mid] < pos {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(ps) {
		return -1
	}
	return ps[lo]
}

// Len returns the total number of data-carrying slots (data + overflow).
func (b *Bcast) Len() int { return len(b.Entries) + len(b.Overflow) }

// Items returns the number of distinct items on air.
func (b *Bcast) Items() int {
	if b.positions == nil {
		return len(b.Entries)
	}
	return len(b.positions)
}

// InDatabase reports whether item is a valid database item, whether or
// not it is on air this cycle (h-interval chunks carry a subset).
func (b *Bcast) InDatabase(item model.ItemID) bool {
	return item != model.InvalidItem && int(item) <= b.TotalItems
}

// EntryAt returns the entry at a data-segment slot.
func (b *Bcast) EntryAt(slot int) (Entry, error) {
	if slot < 0 || slot >= len(b.Entries) {
		return Entry{}, fmt.Errorf("broadcast: slot %d out of range 0..%d", slot, len(b.Entries)-1)
	}
	return b.Entries[slot], nil
}

// OldVersionsOf returns the on-air older versions of an item, newest first,
// by following the overflow pointer the way a client would. The returned
// slice aliases the becast and must not be modified.
func (b *Bcast) OldVersionsOf(item model.ItemID) []OldVersion {
	p := b.Position(item)
	if p < 0 {
		return nil
	}
	off := int(b.Entries[p].Overflow)
	if off < 0 {
		return nil
	}
	end := off
	for end < len(b.Overflow) && b.Overflow[end].Item == item {
		end++
	}
	return b.Overflow[off:end]
}

// OverflowSlot returns the absolute slot (counting from the start of the
// data segment) of overflow index i; overflow buckets trail the data
// segment, which is why long-running multiversion readers pay a latency
// penalty (§3.2).
func (b *Bcast) OverflowSlot(i int) int { return len(b.Entries) + i }

// ReadCurrent returns the current version of an item as broadcast this
// cycle, for callers that do not model channel timing.
func (b *Bcast) ReadCurrent(item model.ItemID) (model.Version, error) {
	p := b.Position(item)
	if p < 0 {
		return model.Version{}, fmt.Errorf("broadcast: %v not in program", item)
	}
	return b.Entries[p].Version, nil
}
