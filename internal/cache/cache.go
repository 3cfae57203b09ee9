// Package cache implements the client-side caches of Pitoura & Chrysanthis
// §4: a page-based LRU cache maintained with invalidation combined with
// autoprefetching (after Acharya et al.), whose entries carry the version
// cycle of the cached value (enabling the invalidation-only-with-versioned-
// cache method of §4.1), and a two-partition multiversion cache (§4.2) that
// additionally retains older versions of updated items for long-running
// read-only transactions.
//
// The unit of caching is a page; the evaluation uses one item per page (see
// DESIGN.md on the paper's bucket-size parameter), and bucket-granularity
// invalidation is layered on top by the client, which maps an invalidated
// bucket to its items.
package cache

import (
	"fmt"
	"slices"

	"bpush/internal/model"
)

// Entry is a cached page: the version of the item it holds and whether the
// page has been invalidated and is awaiting autoprefetch. Per §4, a page in
// cache either has a current value or is marked for autoprefetching.
type Entry struct {
	Item    model.ItemID
	Version model.Version
	// Invalid marks the page as invalidated; the value is stale and must
	// not be served, but the page stays resident so the client can
	// autoprefetch the new value when it appears on air.
	Invalid bool
}

// Cache is an LRU cache of current item versions. It is not safe for
// concurrent use; each client owns its own cache.
type Cache struct {
	capacity int
	order    lru[Entry] // front = most recently used
	index    map[model.ItemID]int32
	invalid  int // resident pages marked for autoprefetch
	hits     int64
	misses   int64
}

// New creates a cache holding up to capacity pages. A capacity of zero
// yields a cache that never hits, which models a cache-less client.
func New(capacity int) (*Cache, error) {
	if capacity < 0 {
		return nil, fmt.Errorf("cache: capacity must be non-negative, got %d", capacity)
	}
	return &Cache{
		capacity: capacity,
		order:    newLRU[Entry](capacity),
		index:    make(map[model.ItemID]int32, capacity),
	}, nil
}

// Capacity returns the configured page capacity.
func (c *Cache) Capacity() int { return c.capacity }

// Len returns the number of resident pages (including invalidated ones).
func (c *Cache) Len() int { return len(c.index) }

// Get returns the cached version of item if present and not invalidated,
// bumping its recency. The paper's read rule: "if the item is found in
// cache and the page is not invalidated, the item is read from the cache".
func (c *Cache) Get(item model.ItemID) (model.Version, bool) {
	i, ok := c.index[item]
	if !ok {
		c.misses++
		return model.Version{}, false
	}
	e := c.order.at(i)
	if e.Invalid {
		c.misses++
		return model.Version{}, false
	}
	c.order.moveToFront(i)
	c.hits++
	return e.Version, true
}

// Peek returns the entry without touching recency or counters. It reports
// invalidated pages too, so callers can distinguish "resident but stale"
// from "absent".
func (c *Cache) Peek(item model.ItemID) (Entry, bool) {
	i, ok := c.index[item]
	if !ok {
		return Entry{}, false
	}
	return *c.order.at(i), true
}

// Put inserts or refreshes the page for item with the given version,
// clearing any invalidation mark (this is what autoprefetch does when the
// new value appears on the broadcast). The least recently used page is
// evicted if the cache is full. The evicted item and true are returned when
// an eviction happened.
func (c *Cache) Put(item model.ItemID, v model.Version) (model.ItemID, bool) {
	if c.capacity == 0 {
		return model.InvalidItem, false
	}
	if i, ok := c.index[item]; ok {
		e := c.order.at(i)
		if e.Invalid {
			c.invalid--
		}
		e.Version = v
		e.Invalid = false
		c.order.moveToFront(i)
		return model.InvalidItem, false
	}
	var evicted model.ItemID
	var didEvict bool
	if len(c.index) >= c.capacity {
		victim := c.order.back()
		evicted, didEvict = c.order.at(victim).Item, true
		c.drop(victim)
	}
	c.index[item] = c.order.pushFront(Entry{Item: item, Version: v})
	return evicted, didEvict
}

// Invalidate marks the page for item stale if resident, returning the
// entry as it was before invalidation and whether the item was resident.
// The page remains resident for autoprefetching.
func (c *Cache) Invalidate(item model.ItemID) (Entry, bool) {
	i, ok := c.index[item]
	if !ok {
		return Entry{}, false
	}
	e := c.order.at(i)
	prev := *e
	if !e.Invalid {
		e.Invalid = true
		c.invalid++
	}
	return prev, true
}

// AppendInvalidItems appends the resident pages currently marked for
// autoprefetch to dst, in recency order (most recent first), and returns
// the extended slice. The order is deterministic so that downstream
// refills touch the LRU list reproducibly; the walk stops once it has
// found every invalid page. Per-cycle callers pass owner-retained
// scratch.
func (c *Cache) AppendInvalidItems(dst []model.ItemID) []model.ItemID {
	k := len(dst)
	dst = slices.Grow(dst, c.invalid)[:k+c.invalid]
	for i := c.order.front(); i != 0 && k < len(dst); i = c.order.next(i) {
		if e := c.order.at(i); e.Invalid {
			dst[k] = e.Item
			k++
		}
	}
	return dst[:k]
}

// Items returns the IDs of all resident pages (valid and invalidated), in
// recency order, most recent first.
func (c *Cache) Items() []model.ItemID {
	//lint:allow hotalloc reached only through the resync path, which runs once per declared gap, not per cycle
	out := make([]model.ItemID, len(c.index))
	for n, i := 0, c.order.front(); i != 0; n, i = n+1, c.order.next(i) {
		out[n] = c.order.at(i).Item
	}
	return out
}

// Clear drops every resident page. The slab and the index map are
// retained and cleared so a post-flush refill allocates nothing.
func (c *Cache) Clear() {
	c.order.clear()
	clear(c.index)
	c.invalid = 0
}

// Remove drops the page for item entirely.
func (c *Cache) Remove(item model.ItemID) {
	if i, ok := c.index[item]; ok {
		c.drop(i)
	}
}

// drop unlinks resident node i and forgets its item.
func (c *Cache) drop(i int32) {
	e := c.order.at(i)
	if e.Invalid {
		c.invalid--
	}
	delete(c.index, e.Item)
	c.order.remove(i)
}

// Stats returns the hit and miss counters accumulated by Get.
func (c *Cache) Stats() (hits, misses int64) { return c.hits, c.misses }
