package index

import (
	"sort"

	"bpush/internal/model"
)

// Len returns the number of indexed keys.
func (t *Tree) Len() int { return len(t.entries) }

// Lookup returns the data slot of key and the number of index buckets a
// client probes to find it (the tree height — each probe reads one
// bucket, dozing in between).
func (t *Tree) Lookup(key model.ItemID) (slot, probes int, ok bool) {
	i := sort.Search(len(t.entries), func(i int) bool { return t.entries[i].Key >= key })
	if i == len(t.entries) || t.entries[i].Key != key {
		return 0, t.levels, false
	}
	return t.entries[i].Slot, t.levels, true
}

// ExpectedAccess returns the expected access latency in slots for a
// random item under the classical (1,m) analysis: half the distance to
// the next index copy, plus half a cycle to reach the item.
func (l Layout) ExpectedAccess() float64 {
	interval := float64(l.TotalSlots()) / float64(l.M)
	return interval/2 + float64(l.TotalSlots())/2
}

// ExpectedTuning returns the expected tuning time in slots — the energy
// metric: the initial probe (which doubles as the next-index-offset
// read), one probe per index level, and the item itself.
func (l Layout) ExpectedTuning() float64 {
	return float64(1 + l.Probes + 1)
}
