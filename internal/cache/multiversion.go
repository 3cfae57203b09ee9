package cache

import (
	"fmt"

	"bpush/internal/model"
)

// MultiCache is the multiversion cache of §4.2: the cache space is divided
// into two parts, one holding current versions (an ordinary Cache) and one
// holding older versions. When a cached item is invalidated, its previous
// value is demoted into the old-version partition instead of being
// discarded, so long-running transactions can find sufficiently old
// versions locally. Both partitions are LRU; the split is a client-side
// knob ("it is the client's responsibility to adjust the space in cache
// allocated to older versions", §4.2).
//
// Every old version carries its validity interval [Version.Cycle,
// validThrough]: the value became current at Version.Cycle and was
// overwritten at validThrough+1. GetAtOrBefore only serves exact interval
// hits, so LRU eviction of a middle version can never cause a newer state
// to be answered with an older value — it strictly turns hits into misses
// (aborts), never into inconsistencies.
type MultiCache struct {
	current *Cache
	old     *versionStore
}

// NewMulti creates a multiversion cache with the given partition
// capacities (in pages).
func NewMulti(currentCap, oldCap int) (*MultiCache, error) {
	cur, err := New(currentCap)
	if err != nil {
		return nil, err
	}
	old, err := newVersionStore(oldCap)
	if err != nil {
		return nil, err
	}
	return &MultiCache{current: cur, old: old}, nil
}

// Current exposes the current-version partition, which behaves exactly
// like the plain cache (reads of fresh transactions go through it).
func (m *MultiCache) Current() *Cache { return m.current }

// OldLen returns the number of resident old-version pages.
func (m *MultiCache) OldLen() int { return m.old.len() }

// OldCapacity returns the old-partition capacity.
func (m *MultiCache) OldCapacity() int { return m.old.capacity }

// Invalidate handles an invalidation-report entry seen at cycle atCycle:
// the current entry, if resident and still valid, is demoted into the
// old-version partition (valid through atCycle-1, since the overwrite
// happened during the previous cycle) and the page is marked for
// autoprefetch.
func (m *MultiCache) Invalidate(item model.ItemID, atCycle model.Cycle) {
	prev, ok := m.current.Invalidate(item)
	if !ok || prev.Invalid {
		return
	}
	if atCycle == 0 {
		return
	}
	m.old.put(item, prev.Version, atCycle-1)
}

// Put refreshes the current version of item (autoprefetch or a read from
// the broadcast being cached).
func (m *MultiCache) Put(item model.ItemID, v model.Version) {
	m.current.Put(item, v)
}

// GetCurrent serves a read of the most recent value, like Cache.Get.
func (m *MultiCache) GetCurrent(item model.ItemID) (model.Version, bool) {
	return m.current.Get(item)
}

// GetAtOrBefore returns the version of item that was current at cycle c —
// the §4.2 read rule for a transaction whose readset was first invalidated
// at cycle c+1. It checks the current partition first (a valid current
// entry that became current at or before c still qualifies), then looks
// for an old version whose validity interval covers c. A miss means the
// needed version was never cached or has been evicted; the caller aborts.
func (m *MultiCache) GetAtOrBefore(item model.ItemID, c model.Cycle) (model.Version, bool) {
	if v, ok := m.current.Get(item); ok && v.Cycle <= c {
		return v, true
	}
	return m.old.covering(item, c)
}

// FlushCurrent empties the current-version partition (disconnection
// recovery: missed invalidation reports make current entries
// untrustworthy). Old versions carry their own validity intervals, which
// remain facts, so they survive.
func (m *MultiCache) FlushCurrent() { m.current.Clear() }

// versionStore is a capacity-bounded LRU multimap from item to older
// versions with validity intervals. The versions of one item are chained
// through the slab by sib, oldest admission first, and heads maps an item
// to its chain's first node.
type versionStore struct {
	capacity int
	order    lru[oldEntry]
	heads    map[model.ItemID]int32
}

type oldEntry struct {
	item         model.ItemID
	version      model.Version
	validThrough model.Cycle
	sib          int32 // next version of the same item; 0 ends the chain
}

func newVersionStore(capacity int) (*versionStore, error) {
	if capacity < 0 {
		return nil, fmt.Errorf("cache: old-version capacity must be non-negative, got %d", capacity)
	}
	return &versionStore{
		capacity: capacity,
		order:    newLRU[oldEntry](capacity),
		heads:    make(map[model.ItemID]int32, capacity),
	}, nil
}

func (s *versionStore) len() int { return s.order.len() }

func (s *versionStore) put(item model.ItemID, v model.Version, validThrough model.Cycle) {
	if s.capacity == 0 {
		return
	}
	// Refresh an identical version in place (idempotent demotions); the
	// validity interval can only extend.
	for i := s.heads[item]; i != 0; i = s.order.at(i).sib {
		if e := s.order.at(i); e.version.Cycle == v.Cycle {
			if validThrough > e.validThrough {
				e.validThrough = validThrough
			}
			s.order.moveToFront(i)
			return
		}
	}
	if s.order.len() >= s.capacity {
		s.evict(s.order.back())
	}
	n := s.order.pushFront(oldEntry{item: item, version: v, validThrough: validThrough})
	i, ok := s.heads[item]
	if !ok {
		s.heads[item] = n
		return
	}
	for s.order.at(i).sib != 0 {
		i = s.order.at(i).sib
	}
	s.order.at(i).sib = n
}

// evict drops node i from the recency list and from its item's chain.
func (s *versionStore) evict(i int32) {
	e := s.order.at(i)
	if h := s.heads[e.item]; h == i {
		if e.sib == 0 {
			delete(s.heads, e.item)
		} else {
			s.heads[e.item] = e.sib
		}
	} else {
		for s.order.at(h).sib != i {
			h = s.order.at(h).sib
		}
		s.order.at(h).sib = e.sib
	}
	s.order.remove(i)
}

// covering returns the old version of item whose validity interval
// contains cycle c. Intervals of one item are disjoint, so at most one
// entry matches.
func (s *versionStore) covering(item model.ItemID, c model.Cycle) (model.Version, bool) {
	for i := s.heads[item]; i != 0; i = s.order.at(i).sib {
		if e := s.order.at(i); e.version.Cycle <= c && c <= e.validThrough {
			s.order.moveToFront(i)
			return e.version, true
		}
	}
	return model.Version{}, false
}
