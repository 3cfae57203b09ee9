package cache

import (
	"container/list"
	"math/rand"
	"slices"
	"testing"

	"bpush/internal/model"
)

// listCache, listMulti and listVersionStore are the container/list
// implementations the slab caches replaced, kept as they were apart from
// renames and the dropped argument checks, so FuzzCacheVsOracle can check
// the slab LRU against them operation by operation.
type listCache struct {
	capacity int
	order    *list.List // front = most recently used; values are *Entry
	index    map[model.ItemID]*list.Element
	hits     int64
	misses   int64
}

func newListCache(capacity int) *listCache {
	return &listCache{
		capacity: capacity,
		order:    list.New(),
		index:    make(map[model.ItemID]*list.Element, capacity),
	}
}

// Len returns the number of resident pages (including invalidated ones).
func (c *listCache) Len() int { return len(c.index) }

// Get returns the cached version of item if present and not invalidated,
// bumping its recency. The paper's read rule: "if the item is found in
// cache and the page is not invalidated, the item is read from the cache".
func (c *listCache) Get(item model.ItemID) (model.Version, bool) {
	el, ok := c.index[item]
	if !ok {
		c.misses++
		return model.Version{}, false
	}
	e := el.Value.(*Entry)
	if e.Invalid {
		c.misses++
		return model.Version{}, false
	}
	c.order.MoveToFront(el)
	c.hits++
	return e.Version, true
}

// Peek returns the entry without touching recency or counters. It reports
// invalidated pages too, so callers can distinguish "resident but stale"
// from "absent".
func (c *listCache) Peek(item model.ItemID) (Entry, bool) {
	el, ok := c.index[item]
	if !ok {
		return Entry{}, false
	}
	return *el.Value.(*Entry), true
}

// Put inserts or refreshes the page for item with the given version,
// clearing any invalidation mark (this is what autoprefetch does when the
// new value appears on the broadcast). The least recently used page is
// evicted if the cache is full. The evicted item and true are returned when
// an eviction happened.
func (c *listCache) Put(item model.ItemID, v model.Version) (model.ItemID, bool) {
	if c.capacity == 0 {
		return model.InvalidItem, false
	}
	if el, ok := c.index[item]; ok {
		e := el.Value.(*Entry)
		e.Version = v
		e.Invalid = false
		c.order.MoveToFront(el)
		return model.InvalidItem, false
	}
	var evicted model.ItemID
	var didEvict bool
	if len(c.index) >= c.capacity {
		back := c.order.Back()
		if back != nil {
			victim := back.Value.(*Entry)
			delete(c.index, victim.Item)
			c.order.Remove(back)
			evicted, didEvict = victim.Item, true
		}
	}
	c.index[item] = c.order.PushFront(&Entry{Item: item, Version: v})
	return evicted, didEvict
}

// Invalidate marks the page for item stale if resident, returning the
// entry as it was before invalidation and whether the item was resident.
// The page remains resident for autoprefetching.
func (c *listCache) Invalidate(item model.ItemID) (Entry, bool) {
	el, ok := c.index[item]
	if !ok {
		return Entry{}, false
	}
	e := el.Value.(*Entry)
	prev := *e
	e.Invalid = true
	return prev, true
}

// AppendInvalidItems appends the invalidated resident pages to dst in
// recency order and returns the extended slice.
func (c *listCache) AppendInvalidItems(dst []model.ItemID) []model.ItemID {
	for el := c.order.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*Entry); e.Invalid {
			dst = append(dst, e.Item)
		}
	}
	return dst
}

// Items returns the IDs of all resident pages (valid and invalidated), in
// recency order, most recent first.
func (c *listCache) Items() []model.ItemID {
	out := make([]model.ItemID, 0, len(c.index))
	for el := c.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*Entry).Item)
	}
	return out
}

// Clear drops every resident page. The index map is retained and
// clear()ed so a post-flush refill does not regrow its buckets.
func (c *listCache) Clear() {
	c.order.Init()
	clear(c.index)
}

// Remove drops the page for item entirely.
func (c *listCache) Remove(item model.ItemID) {
	if el, ok := c.index[item]; ok {
		delete(c.index, item)
		c.order.Remove(el)
	}
}

// Stats returns the hit and miss counters accumulated by Get.
func (c *listCache) Stats() (hits, misses int64) { return c.hits, c.misses }

type listMulti struct {
	current *listCache
	old     *listVersionStore
}

func newListMulti(currentCap, oldCap int) *listMulti {
	return &listMulti{current: newListCache(currentCap), old: newListVersionStore(oldCap)}
}

// OldLen returns the number of resident old-version pages.
func (m *listMulti) OldLen() int { return m.old.len() }

// Invalidate handles an invalidation-report entry seen at cycle atCycle:
// the current entry, if resident and still valid, is demoted into the
// old-version partition (valid through atCycle-1, since the overwrite
// happened during the previous cycle) and the page is marked for
// autoprefetch.
func (m *listMulti) Invalidate(item model.ItemID, atCycle model.Cycle) {
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
func (m *listMulti) Put(item model.ItemID, v model.Version) {
	m.current.Put(item, v)
}

// GetCurrent serves a read of the most recent value, like Cache.Get.
func (m *listMulti) GetCurrent(item model.ItemID) (model.Version, bool) {
	return m.current.Get(item)
}

// GetAtOrBefore returns the version of item that was current at cycle c —
// the §4.2 read rule for a transaction whose readset was first invalidated
// at cycle c+1. It checks the current partition first (a valid current
// entry that became current at or before c still qualifies), then looks
// for an old version whose validity interval covers c. A miss means the
// needed version was never cached or has been evicted; the caller aborts.
func (m *listMulti) GetAtOrBefore(item model.ItemID, c model.Cycle) (model.Version, bool) {
	if v, ok := m.current.Get(item); ok && v.Cycle <= c {
		return v, true
	}
	return m.old.covering(item, c)
}

// FlushCurrent empties the current-version partition (disconnection
// recovery: missed invalidation reports make current entries
// untrustworthy). Old versions carry their own validity intervals, which
// remain facts, so they survive.
func (m *listMulti) FlushCurrent() { m.current.Clear() }

// listVersionStore is a capacity-bounded LRU multimap from item to older
// versions with validity intervals.
type listVersionStore struct {
	capacity int
	order    *list.List // values are *listOldEntry
	index    map[model.ItemID][]*list.Element
}

type listOldEntry struct {
	item         model.ItemID
	version      model.Version
	validThrough model.Cycle
}

func newListVersionStore(capacity int) *listVersionStore {
	return &listVersionStore{
		capacity: capacity,
		order:    list.New(),
		index:    make(map[model.ItemID][]*list.Element),
	}
}

func (s *listVersionStore) len() int { return s.order.Len() }

func (s *listVersionStore) put(item model.ItemID, v model.Version, validThrough model.Cycle) {
	if s.capacity == 0 {
		return
	}
	// Refresh an identical version in place (idempotent demotions); the
	// validity interval can only extend.
	for _, el := range s.index[item] {
		e := el.Value.(*listOldEntry)
		if e.version.Cycle == v.Cycle {
			if validThrough > e.validThrough {
				e.validThrough = validThrough
			}
			s.order.MoveToFront(el)
			return
		}
	}
	if s.order.Len() >= s.capacity {
		back := s.order.Back()
		if back != nil {
			s.removeElement(back)
		}
	}
	el := s.order.PushFront(&listOldEntry{item: item, version: v, validThrough: validThrough})
	s.index[item] = append(s.index[item], el)
}

func (s *listVersionStore) removeElement(el *list.Element) {
	e := el.Value.(*listOldEntry)
	s.order.Remove(el)
	els := s.index[e.item]
	for i, cand := range els {
		if cand == el {
			s.index[e.item] = append(els[:i], els[i+1:]...)
			break
		}
	}
	if len(s.index[e.item]) == 0 {
		delete(s.index, e.item)
	}
}

// covering returns the old version of item whose validity interval
// contains cycle c. Intervals of one item are disjoint, so at most one
// entry matches.
func (s *listVersionStore) covering(item model.ItemID, c model.Cycle) (model.Version, bool) {
	for _, el := range s.index[item] {
		e := el.Value.(*listOldEntry)
		if e.version.Cycle <= c && c <= e.validThrough {
			s.order.MoveToFront(el)
			return e.version, true
		}
	}
	return model.Version{}, false
}

// FuzzCacheVsOracle drives a slab MultiCache and the list oracle with the
// same operation sequence: Put, Get, Peek, Invalidate and Remove on the
// current partition, the multiversion Invalidate, Put, GetAtOrBefore and
// FlushCurrent, and Clear. Every return value must match, and after every
// operation so must Len, OldLen, the hit/miss counters, the Items and
// AppendInvalidItems orders, and the old partition's recency order and
// per-item version chains.
func FuzzCacheVsOracle(f *testing.F) {
	f.Add([]byte{4, 3, 0, 1, 1, 0, 2, 1, 0, 3, 1, 4, 1, 2, 5, 2, 1, 6, 1, 3})
	f.Add([]byte{2, 1, 0, 1, 1, 0, 2, 2, 0, 3, 3, 5, 1, 4, 0, 1, 9, 7, 1, 9, 8, 1, 2, 9, 1, 2})
	f.Add([]byte{0, 0, 0, 1, 1, 2, 1, 1, 5, 1, 3})
	// Two old versions of one item, then reads of each interval.
	f.Add([]byte{4, 4, 0, 1, 2, 5, 1, 5, 0, 1, 6, 5, 1, 8, 7, 1, 3, 7, 1, 6})
	f.Add([]byte{8, 5, 0, 1, 1, 0, 1, 2, 4, 1, 3, 0, 1, 4, 4, 1, 5, 0, 1, 4, 5, 1, 6, 6, 1, 2, 9, 0, 3, 3, 1, 2, 10, 7, 1, 5, 8, 0, 0})
	f.Fuzz(checkCacheVsOracle)
}

// TestCacheVsOracleRandom runs the differential on random operation
// sequences in every test run, not only under -fuzz.
func TestCacheVsOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	data := make([]byte, 2+3*400)
	for i := 0; i < 300; i++ {
		rng.Read(data)
		checkCacheVsOracle(t, data)
	}
}

// checkCacheVsOracle decodes data into capacities (the first two bytes)
// and operations (three bytes each: kind, item, cycle) and applies them to
// both implementations.
func checkCacheVsOracle(t *testing.T, data []byte) {
	if len(data) < 2 {
		return
	}
	curCap, oldCap := int(data[0]%9), int(data[1]%6)
	m, err := NewMulti(curCap, oldCap)
	if err != nil {
		t.Fatal(err)
	}
	o := newListMulti(curCap, oldCap)
	c, oc := m.Current(), o.current
	var scratch []model.ItemID
	for op := 0; len(data) >= 5; op, data = op+1, data[3:] {
		item := model.ItemID(data[3]%12 + 1)
		arg := model.Cycle(data[4] % 16)
		v := model.Version{Value: model.Value(op), Cycle: arg, Writer: model.TxID{Cycle: arg, Seq: uint32(op)}}
		switch kind := data[2] % 10; kind {
		case 0:
			ge, gok := c.Put(item, v)
			we, wok := oc.Put(item, v)
			if ge != we || gok != wok {
				t.Fatalf("op %d Put(%v): evicted %v,%v, oracle %v,%v", op, item, ge, gok, we, wok)
			}
		case 1:
			gv, gok := c.Get(item)
			wv, wok := oc.Get(item)
			if gv != wv || gok != wok {
				t.Fatalf("op %d Get(%v) = %+v,%v, oracle %+v,%v", op, item, gv, gok, wv, wok)
			}
		case 2:
			ge, gok := c.Peek(item)
			we, wok := oc.Peek(item)
			if ge != we || gok != wok {
				t.Fatalf("op %d Peek(%v) = %+v,%v, oracle %+v,%v", op, item, ge, gok, we, wok)
			}
		case 3:
			ge, gok := c.Invalidate(item)
			we, wok := oc.Invalidate(item)
			if ge != we || gok != wok {
				t.Fatalf("op %d Invalidate(%v) = %+v,%v, oracle %+v,%v", op, item, ge, gok, we, wok)
			}
		case 4:
			c.Remove(item)
			oc.Remove(item)
		case 5:
			m.Invalidate(item, arg)
			o.Invalidate(item, arg)
		case 6:
			m.Put(item, v)
			o.Put(item, v)
		case 7:
			gv, gok := m.GetAtOrBefore(item, arg)
			wv, wok := o.GetAtOrBefore(item, arg)
			if gv != wv || gok != wok {
				t.Fatalf("op %d GetAtOrBefore(%v, %v) = %+v,%v, oracle %+v,%v", op, item, arg, gv, gok, wv, wok)
			}
		case 8:
			m.FlushCurrent()
			o.FlushCurrent()
		case 9:
			if arg%4 == 0 { // rarer than the other operations
				c.Clear()
				oc.Clear()
			}
		}
		if c.Len() != oc.Len() || m.OldLen() != o.OldLen() {
			t.Fatalf("op %d: Len %d OldLen %d, oracle %d %d", op, c.Len(), m.OldLen(), oc.Len(), o.OldLen())
		}
		gh, gm := c.Stats()
		wh, wm := oc.Stats()
		if gh != wh || gm != wm {
			t.Fatalf("op %d: Stats %d/%d, oracle %d/%d", op, gh, gm, wh, wm)
		}
		if got, want := c.Items(), oc.Items(); !slices.Equal(got, want) {
			t.Fatalf("op %d: Items %v, oracle %v", op, got, want)
		}
		// A retained prefix checks the append contract.
		scratch = append(scratch[:0], 99)
		scratch = c.AppendInvalidItems(scratch)
		want := oc.AppendInvalidItems([]model.ItemID{99})
		if !slices.Equal(scratch, want) {
			t.Fatalf("op %d: AppendInvalidItems %v, oracle %v", op, scratch, want)
		}
		if c.invalid != len(want)-1 {
			t.Fatalf("op %d: invalid count %d, oracle has %d invalid pages", op, c.invalid, len(want)-1)
		}
		if got, want := slabOld(m.old), listOld(o.old); !slices.Equal(got, want) {
			t.Fatalf("op %d: old partition %v, oracle %v", op, got, want)
		}
	}
}

// oldLine is one old version as the differential compares it: its place
// in recency order and, through rank, its place in its item's chain.
type oldLine struct {
	item         model.ItemID
	cycle        model.Cycle
	validThrough model.Cycle
	rank         int // position in the item's version chain
}

func slabOld(s *versionStore) []oldLine {
	var out []oldLine
	for i := s.order.front(); i != 0; i = s.order.next(i) {
		e := s.order.at(i)
		rank := 0
		for j := s.heads[e.item]; j != i; j = s.order.at(j).sib {
			if j == 0 {
				return append(out, oldLine{item: e.item, rank: -1}) // not on its chain
			}
			rank++
		}
		out = append(out, oldLine{e.item, e.version.Cycle, e.validThrough, rank})
	}
	return out
}

func listOld(s *listVersionStore) []oldLine {
	var out []oldLine
	for el := s.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*listOldEntry)
		rank := slices.Index(s.index[e.item], el)
		out = append(out, oldLine{e.item, e.version.Cycle, e.validThrough, rank})
	}
	return out
}
