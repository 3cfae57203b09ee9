package cache

import (
	"testing"

	"bpush/internal/model"
)

func ver(val model.Value, c model.Cycle) model.Version {
	return model.Version{Value: val, Cycle: c}
}

func mustCache(t *testing.T, cap int) *Cache {
	t.Helper()
	c, err := New(cap)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(-1); err == nil {
		t.Error("New(-1) succeeded, want error")
	}
	if _, err := New(0); err != nil {
		t.Errorf("New(0) failed: %v", err)
	}
}

func TestZeroCapacityNeverStores(t *testing.T) {
	c := mustCache(t, 0)
	c.Put(1, ver(10, 1))
	if _, ok := c.Get(1); ok {
		t.Error("zero-capacity cache served a hit")
	}
	if c.Len() != 0 {
		t.Errorf("Len() = %d, want 0", c.Len())
	}
}

func TestPutGet(t *testing.T) {
	c := mustCache(t, 4)
	c.Put(1, ver(10, 2))
	v, ok := c.Get(1)
	if !ok {
		t.Fatal("miss on resident item")
	}
	if v.Value != 10 || v.Cycle != 2 {
		t.Errorf("got %+v, want value 10 cycle 2", v)
	}
	if _, ok := c.Get(2); ok {
		t.Error("hit on absent item")
	}
}

func TestLRUEviction(t *testing.T) {
	c := mustCache(t, 2)
	c.Put(1, ver(1, 1))
	c.Put(2, ver(2, 1))
	c.Get(1) // make 2 the LRU victim
	evicted, did := c.Put(3, ver(3, 1))
	if !did || evicted != 2 {
		t.Errorf("evicted %v (did=%v), want item 2", evicted, did)
	}
	if _, ok := c.Get(2); ok {
		t.Error("evicted item still resident")
	}
	if _, ok := c.Get(1); !ok {
		t.Error("recently used item evicted")
	}
}

func TestPutRefreshDoesNotEvict(t *testing.T) {
	c := mustCache(t, 2)
	c.Put(1, ver(1, 1))
	c.Put(2, ver(2, 1))
	if _, did := c.Put(1, ver(11, 2)); did {
		t.Error("refresh of resident item triggered eviction")
	}
	v, ok := c.Get(1)
	if !ok || v.Value != 11 {
		t.Errorf("refresh lost: got %+v ok=%v", v, ok)
	}
}

func TestInvalidationBlocksReads(t *testing.T) {
	c := mustCache(t, 4)
	c.Put(1, ver(10, 2))
	prev, resident := c.Invalidate(1)
	if !resident {
		t.Fatal("Invalidate reported non-resident")
	}
	if prev.Version.Value != 10 || prev.Invalid {
		t.Errorf("previous entry = %+v, want valid value 10", prev)
	}
	if _, ok := c.Get(1); ok {
		t.Error("invalidated page served (§4: stale pages must not be read)")
	}
	// Page stays resident for autoprefetch.
	if e, ok := c.Peek(1); !ok || !e.Invalid {
		t.Errorf("Peek after invalidation = %+v ok=%v, want resident invalid entry", e, ok)
	}
	got := c.AppendInvalidItems(nil)
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("AppendInvalidItems(nil) = %v, want [1]", got)
	}
	// Autoprefetch restores service.
	c.Put(1, ver(20, 3))
	v, ok := c.Get(1)
	if !ok || v.Value != 20 {
		t.Errorf("after autoprefetch got %+v ok=%v, want value 20", v, ok)
	}
	if len(c.AppendInvalidItems(nil)) != 0 {
		t.Error("autoprefetched page still marked invalid")
	}
}

func TestInvalidateAbsent(t *testing.T) {
	c := mustCache(t, 2)
	if _, resident := c.Invalidate(9); resident {
		t.Error("Invalidate of absent item reported resident")
	}
}

func TestPageInvariant(t *testing.T) {
	// §4 invariant: every resident page either holds the current value
	// (set by the latest Put) or is marked for autoprefetch.
	c := mustCache(t, 8)
	for i := model.ItemID(1); i <= 8; i++ {
		c.Put(i, ver(model.Value(i), 1))
	}
	c.Invalidate(2)
	c.Invalidate(5)
	for i := model.ItemID(1); i <= 8; i++ {
		e, ok := c.Peek(i)
		if !ok {
			t.Fatalf("item %d not resident", i)
		}
		if !e.Invalid && e.Version.Cycle != 1 {
			t.Errorf("item %d: neither current nor marked invalid: %+v", i, e)
		}
	}
}

func TestRemove(t *testing.T) {
	c := mustCache(t, 2)
	c.Put(1, ver(1, 1))
	c.Remove(1)
	if _, ok := c.Peek(1); ok {
		t.Error("removed item still resident")
	}
	c.Remove(42) // removing absent items is a no-op
}

func TestStats(t *testing.T) {
	c := mustCache(t, 2)
	c.Put(1, ver(1, 1))
	c.Get(1)
	c.Get(2)
	c.Invalidate(1)
	c.Get(1)
	hits, misses := c.Stats()
	if hits != 1 || misses != 2 {
		t.Errorf("Stats() = %d hits %d misses, want 1/2", hits, misses)
	}
}

func TestLenCountsInvalidPages(t *testing.T) {
	c := mustCache(t, 4)
	c.Put(1, ver(1, 1))
	c.Put(2, ver(2, 1))
	c.Invalidate(1)
	if c.Len() != 2 {
		t.Errorf("Len() = %d, want 2 (invalid pages stay resident)", c.Len())
	}
}
