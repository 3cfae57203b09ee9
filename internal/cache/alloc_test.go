package cache

import (
	"testing"

	"bpush/internal/model"
)

// warmCache returns a full cache of capacity pages that has already
// churned through many admissions and evictions, so its slab and index
// map are at their steady-state size.
func warmCache(t *testing.T, capacity int) *Cache {
	t.Helper()
	c := mustCache(t, capacity)
	for i := 0; i < 50*capacity; i++ {
		item := model.ItemID(i%(3*capacity) + 1)
		c.Put(item, ver(model.Value(i), model.Cycle(i)))
		if i%3 == 0 {
			c.Invalidate(item)
		}
	}
	if c.Len() != capacity {
		t.Fatalf("warm cache holds %d pages, want %d", c.Len(), capacity)
	}
	return c
}

// TestCacheAllocsNothingWarm pins every per-cycle cache operation on a
// full, warm cache at exactly 0 objects: admission with eviction, a hit,
// an invalidation, a removal and re-admission, and the autoprefetch walk
// into retained scratch.
func TestCacheAllocsNothingWarm(t *testing.T) {
	const capacity = 64
	c := warmCache(t, capacity)
	next := model.ItemID(0)
	fresh := func() model.ItemID { // an item 3*capacity+1.. never admitted before
		next++
		return 3*capacity + next
	}
	hit := fresh()
	c.Put(hit, ver(2, 2))
	scratch := make([]model.ItemID, 0, capacity)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"Get", func() {
			if _, ok := c.Get(hit); !ok {
				t.Fatal("Get missed a valid page")
			}
		}},
		{"Invalidate", func() {
			if _, ok := c.Invalidate(c.order.at(c.order.front()).Item); !ok {
				t.Fatal("Invalidate missed a resident page")
			}
		}},
		{"Remove and re-Put", func() {
			item := c.order.at(c.order.back()).Item
			c.Remove(item)
			if _, evicted := c.Put(item, ver(3, 3)); evicted {
				t.Fatal("re-Put after Remove evicted")
			}
		}},
		{"AppendInvalidItems", func() {
			scratch = c.AppendInvalidItems(scratch[:0])
		}},
		{"Put with eviction", func() {
			if _, evicted := c.Put(fresh(), ver(1, 1)); !evicted {
				t.Fatal("Put on a full cache evicted nothing")
			}
		}},
	} {
		if got := testing.AllocsPerRun(200, tc.fn); got != 0 {
			t.Errorf("%s: %v allocs, want 0", tc.name, got)
		}
	}
}

// TestMultiCacheAllocsNothingWarm pins the multiversion cache's per-cycle
// operations at exactly 0 objects: a demotion that evicts from the full
// old partition, and a read served from an old version.
func TestMultiCacheAllocsNothingWarm(t *testing.T) {
	const capacity = 32
	m := mustMulti(t, capacity, capacity)
	cycle := model.Cycle(1)
	// Each step updates one item: the report at cycle+1 demotes the
	// cached version into the old partition, then autoprefetch re-caches.
	step := func() {
		item := model.ItemID(cycle%(2*capacity) + 1)
		m.Put(item, ver(model.Value(cycle), cycle))
		cycle++
		m.Invalidate(item, cycle+1)
	}
	for i := 0; i < 50*capacity; i++ {
		step()
	}
	if m.OldLen() != capacity {
		t.Fatalf("old partition holds %d versions, want %d", m.OldLen(), capacity)
	}
	if got := testing.AllocsPerRun(200, step); got != 0 {
		t.Errorf("Invalidate with old-partition eviction: %v allocs, want 0", got)
	}
	newest := m.old.order.at(m.old.order.front())
	if got := testing.AllocsPerRun(200, func() {
		if _, ok := m.GetAtOrBefore(newest.item, newest.validThrough); !ok {
			t.Fatal("GetAtOrBefore missed a resident old version")
		}
	}); got != 0 {
		t.Errorf("GetAtOrBefore: %v allocs, want 0", got)
	}
}
