// Package index implements on-air directory information for selective
// tuning (§2.1 of Pitoura & Chrysanthis, after Imielinski et al.'s
// (1,m) indexing): battery-powered clients should not listen to the whole
// broadcast to find one item, so a k-ary index over the data segment is
// broadcast m times per cycle, letting a client doze between short probes.
//
// The package provides the index tree, the (1,m) layout arithmetic, the
// classical optimum for m, and a protocol walk that measures access
// latency and tuning time in slots, used by the energy ablation bench.
// The core consistency schemes do not depend on it — with a flat program
// the offset of every item is fixed and a locally stored directory
// suffices (§3.2) — but it quantifies the cost of *not* having a local
// directory, and serves broadcast-disk programs whose layouts change per
// cycle.
package index

import (
	"fmt"
	"math"
	"sort"

	"bpush/internal/broadcast"
	"bpush/internal/model"
)

// Entry maps a search key to its data-segment slot.
type Entry struct {
	Key  model.ItemID
	Slot int
}

// Tree is a k-ary search index over the data segment, organized in
// levels; level 0 is the root bucket. Each node occupies one on-air
// bucket, matching the paper's "directory information is broadcasted
// along with data" model.
type Tree struct {
	fanout  int
	entries []Entry // sorted by key
	// levels[l] holds the first entry index covered by each node at
	// level l; the leaf level is the entries themselves, fanout per
	// bucket.
	levels int
}

// Build constructs an index with the given fanout (keys per bucket).
func Build(entries []Entry, fanout int) (*Tree, error) {
	if fanout < 2 {
		return nil, fmt.Errorf("index: fanout must be >= 2, got %d", fanout)
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("index: no entries")
	}
	sorted := make([]Entry, len(entries))
	copy(sorted, entries)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	for i := 1; i < len(sorted); i++ {
		if sorted[i].Key == sorted[i-1].Key {
			return nil, fmt.Errorf("index: duplicate key %v", sorted[i].Key)
		}
	}
	t := &Tree{fanout: fanout, entries: sorted}
	// Height: leaves hold fanout entries; each upper level divides by
	// fanout.
	n := (len(sorted) + fanout - 1) / fanout // leaf buckets
	t.levels = 1
	for n > 1 {
		n = (n + fanout - 1) / fanout
		t.levels++
	}
	return t, nil
}

// FromBcast builds an index over a becast's first occurrence of every
// item.
func FromBcast(b *broadcast.Bcast, fanout int) (*Tree, error) {
	seen := make(map[model.ItemID]bool, len(b.Entries))
	entries := make([]Entry, 0, len(b.Entries))
	for slot, e := range b.Entries {
		if !seen[e.Item] {
			seen[e.Item] = true
			entries = append(entries, Entry{Key: e.Item, Slot: slot})
		}
	}
	return Build(entries, fanout)
}

// Height returns the number of index levels (= probes per lookup).
//
//lint:allow deadexport facade API (bpush.IndexTree), pinned by ExampleBuildIndex
func (t *Tree) Height() int { return t.levels }

// Buckets returns the on-air size of one index copy, in buckets: the sum
// of the node counts of every level.
//
//lint:allow deadexport facade API (bpush.IndexTree), pinned by ExampleBuildIndex
func (t *Tree) Buckets() int {
	total := 0
	n := (len(t.entries) + t.fanout - 1) / t.fanout
	total += n
	for n > 1 {
		n = (n + t.fanout - 1) / t.fanout
		total += n
	}
	return total
}

// Layout is a (1,m) organization: one full index copy broadcast m times
// per cycle, evenly interleaved ahead of each 1/m-th of the data segment.
type Layout struct {
	// DataSlots is the number of data-segment slots per cycle.
	DataSlots int
	// IndexBuckets is the size of one index copy (Tree.Buckets()).
	IndexBuckets int
	// M is the replication factor.
	M int
	// Probes is the tree height (Tree.Height()).
	Probes int
}

// NewLayout validates and returns a layout.
func NewLayout(dataSlots, indexBuckets, m, probes int) (Layout, error) {
	if dataSlots <= 0 || indexBuckets <= 0 || m <= 0 || probes <= 0 {
		return Layout{}, fmt.Errorf("index: invalid layout (%d data, %d index, m=%d, probes=%d)",
			dataSlots, indexBuckets, m, probes)
	}
	if m > dataSlots {
		return Layout{}, fmt.Errorf("index: m=%d exceeds data slots %d", m, dataSlots)
	}
	return Layout{DataSlots: dataSlots, IndexBuckets: indexBuckets, M: m, Probes: probes}, nil
}

// TotalSlots is the cycle length including the m index copies.
func (l Layout) TotalSlots() int { return l.DataSlots + l.M*l.IndexBuckets }

// OptimalM returns the replication factor minimizing the classical (1,m)
// expected access latency — half the distance to the next index copy
// plus half a cycle: m* = sqrt(DataSlots / IndexBuckets), rounded to the
// nearest integer >= 1.
func OptimalM(dataSlots, indexBuckets int) int {
	if dataSlots <= 0 || indexBuckets <= 0 {
		return 1
	}
	m := int(math.Round(math.Sqrt(float64(dataSlots) / float64(indexBuckets))))
	if m < 1 {
		return 1
	}
	return m
}

// Walk simulates the selective-tuning protocol for one lookup starting at
// an arbitrary slot of the (1,m) cycle: the client wakes at start, reads
// one bucket to learn the offset of the next index copy, dozes to it,
// descends the index (one probe per level, dozing between levels), then
// dozes to the item's slot. It returns the access latency and the tuning
// time, both in slots. Data slots are indexed within the data segment;
// the layout arithmetic places the index copies.
//
//lint:allow deadexport facade API (bpush.IndexLayout), pinned by ExampleBuildIndex
func (l Layout) Walk(start, itemSlot int) (access, tuning int, err error) {
	if itemSlot < 0 || itemSlot >= l.DataSlots {
		return 0, 0, fmt.Errorf("index: item slot %d outside data segment 0..%d", itemSlot, l.DataSlots-1)
	}
	total := l.TotalSlots()
	if start < 0 || start >= total {
		return 0, 0, fmt.Errorf("index: start %d outside cycle 0..%d", start, total-1)
	}
	// Copy k of the index starts at slot k*segment, k < M; the last data
	// chunk absorbs the DataSlots%M remainder, so the last segment is
	// longer and no copy starts at M*segment.
	segment := total / l.M
	// Absolute slot where the item lives: data slots are distributed
	// after each index copy, 1/m-th per segment.
	chunk := l.DataSlots / l.M
	seg := itemSlot / chunk
	if seg >= l.M {
		seg = l.M - 1
	}
	within := itemSlot - seg*chunk
	itemAbs := seg*segment + l.IndexBuckets + within

	pos := start
	tuning = 1 // the initial probe that reads the offset pointer
	// Doze to the next index copy at or after pos+1: past the last
	// copy, that is slot 0 of the next cycle.
	nextIdx := (pos/segment + 1) * segment
	if nextIdx >= l.M*segment {
		nextIdx = total
	}
	waited := nextIdx - pos
	// Descend the index: one bucket per level.
	tuning += l.Probes
	probeEnd := nextIdx%total + l.Probes
	elapsed := waited + l.Probes
	// Doze to the item.
	toItem := itemAbs - probeEnd
	for toItem < 0 {
		toItem += total
	}
	elapsed += toItem + 1
	tuning++ // reading the item itself
	return elapsed, tuning, nil
}
