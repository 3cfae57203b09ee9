package core

import (
	"fmt"

	"bpush/internal/broadcast"
	"bpush/internal/cache"
	"bpush/internal/det"
	"bpush/internal/model"
)

// invOnly implements the invalidation-only method (§3.1) and, when
// versioned is set, the invalidation-only-with-versioned-cache method
// (§4.1).
//
// Invalidation-only: the client tunes in at the beginning of each becast
// and reads the invalidation report; the active transaction aborts if any
// item it has read appears there (Theorem 1: committed readsets equal the
// database state of the commit cycle). With a plain cache, reads are first
// served from non-invalidated cache pages.
//
// Versioned cache: instead of aborting when a read item is first
// invalidated at cycle u, the transaction is "marked" and continues as long
// as every further read finds a cache entry whose version predates u
// (Theorem 4: the readset equals the state of cycle u-1).
type invOnly struct {
	opts      Options
	versioned bool

	cur    *broadcast.Bcast
	prev   *broadcast.Bcast
	cache  *cache.Cache // nil when cacheless
	t      txn
	marked model.Cycle // u: cycle of the first readset invalidation (0 = fresh)

	// invalidate is the per-cycle cache-invalidation callback, built
	// once at construction so NewCycle allocates no closure.
	invalidate func(model.ItemID)
	// keyScratch and invScratch are per-cycle walk scratch, reused.
	keyScratch []model.ItemID
	invScratch []model.ItemID

	// Reconnection-resync state (Options.ResyncOnReconnect).
	pendingResync bool
	lastHeard     model.Cycle
}

var _ Scheme = (*invOnly)(nil)

func newInvOnly(opts Options, versioned bool) (*invOnly, error) {
	s := &invOnly{opts: opts, versioned: versioned}
	if versioned && opts.CacheSize == 0 {
		return nil, fmt.Errorf("core: %v requires a cache", opts.Kind)
	}
	if opts.CacheSize > 0 {
		c, err := cache.New(opts.CacheSize)
		if err != nil {
			return nil, err
		}
		s.cache = c
		s.invalidate = func(item model.ItemID) { s.cache.Invalidate(item) }
	}
	return s, nil
}

// Name implements Scheme.
func (s *invOnly) Name() string {
	if s.versioned {
		return "inv-only+vcache"
	}
	if s.cache != nil {
		return "inv-only+cache"
	}
	return "inv-only"
}

// Kind implements Scheme.
func (s *invOnly) Kind() Kind {
	if s.versioned {
		return KindVCache
	}
	return KindInvOnly
}

// Active implements Scheme.
func (s *invOnly) Active() bool { return s.t.active }

// Begin implements Scheme.
func (s *invOnly) Begin() error {
	if s.cur == nil {
		return fmt.Errorf("core: Begin before first cycle")
	}
	if err := s.t.begin(s.opts.Recorder != nil); err != nil {
		return err
	}
	s.marked = 0
	return nil
}

// Abort implements Scheme.
func (s *invOnly) Abort() { s.t.reset(); s.marked = 0 }

// NewCycle implements Scheme.
//
//lint:hotpath runs once per client per broadcast cycle
func (s *invOnly) NewCycle(b *broadcast.Bcast) error {
	if s.cur != nil {
		if b.Cycle <= s.cur.Cycle {
			return nil // duplicate or late frame: already processed
		}
		if b.Cycle != s.cur.Cycle+1 && !s.pendingResync {
			// Undeclared gap: downgrade the lost cycles to misses.
			if err := missRange(s, s.cur.Cycle+1, b.Cycle); err != nil {
				return err
			}
		}
	}
	if s.pendingResync {
		s.resync(b)
		s.prev, s.cur = nil, b // pre-gap becast must not feed autoprefetch
	} else {
		s.prev, s.cur = s.cur, b
		s.invScratch = autoprefetch(s.cache, s.prev, s.invScratch)
	}
	if s.cache != nil {
		b.EachInvalidated(s.opts.BucketGranularity, s.invalidate)
	}
	if s.t.active && s.t.doomed == nil {
		// Sorted readset walk: the abort reason names the first invalidated
		// item, which must not depend on map-iteration order.
		s.keyScratch = det.AppendSortedKeys(s.keyScratch[:0], s.t.readset)
		for _, item := range s.keyScratch {
			if b.Invalidates(item, s.opts.BucketGranularity) {
				if s.versioned {
					recordInvHit(s.opts.Recorder, b.Cycle, item, "marked")
					if s.marked == 0 {
						s.marked = b.Cycle
					}
				} else {
					recordInvHit(s.opts.Recorder, b.Cycle, item, "fatal")
					s.t.doomed = abortErr("%v invalidated at %v (invalidation-only)", item, b.Cycle)
				}
				break
			}
		}
	}
	return nil
}

// MissCycle implements Scheme. Without the per-cycle report the client can
// no longer certify any active transaction and cached pages may be stale,
// so by default the transaction aborts and the cache is flushed. With
// ResyncOnReconnect the decision is deferred to the next heard becast,
// whose on-air version numbers tell exactly what changed during the gap.
func (s *invOnly) MissCycle(c model.Cycle) error {
	if s.opts.ResyncOnReconnect {
		if !s.pendingResync {
			s.pendingResync = true
			if s.cur != nil {
				s.lastHeard = s.cur.Cycle
			}
		}
		return nil
	}
	if s.t.active && s.t.doomed == nil {
		s.t.doomed = abortErr("missed cycle %v (invalidation report lost)", c)
	}
	flushCache(s.cache)
	s.cur = nil // force resync via next NewCycle
	return nil
}

// resync recovers from a connectivity gap using the version numbers
// carried by the data segment: the cache is refreshed wholesale from the
// becast (one full listening pass), and the active transaction survives
// iff none of its read items was updated during the gap — an item's
// current version cycle exceeding the last becast heard is exactly the
// w-window invalidation signal of §5.2.2, with w unbounded.
func (s *invOnly) resync(b *broadcast.Bcast) {
	s.pendingResync = false
	if s.cache != nil {
		for _, item := range s.cache.Items() {
			if v, err := b.ReadCurrent(item); err == nil {
				s.cache.Put(item, v)
			} else {
				s.cache.Remove(item)
			}
		}
	}
	if s.t.active && s.t.doomed == nil && s.lastHeard > 0 {
		// Sorted for the same reason as NewCycle: deterministic abort
		// attribution.
		for _, item := range det.SortedKeys(s.t.readset) {
			v, err := b.ReadCurrent(item)
			if err != nil {
				// Chunked (h-interval) becast without the item: its gap
				// history cannot be verified now; abort conservatively.
				recordInvHit(s.opts.Recorder, b.Cycle, item, "resync-unverifiable")
				s.t.doomed = abortErr("%v not on this becast; gap history unverifiable", item)
				break
			}
			if v.Cycle > s.lastHeard {
				if s.versioned {
					recordInvHit(s.opts.Recorder, b.Cycle, item, "resync-marked")
					// The first invalidation happened at some missed
					// cycle; the earliest possibility is the most
					// conservative marking (Theorem 4 still applies:
					// everything read so far was current through
					// lastHeard).
					if s.marked == 0 || s.lastHeard+1 < s.marked {
						s.marked = s.lastHeard + 1
					}
				} else {
					recordInvHit(s.opts.Recorder, b.Cycle, item, "resync-fatal")
					s.t.doomed = abortErr("%v updated during connectivity gap (version %v > last heard %v)",
						item, v.Cycle, s.lastHeard)
				}
				break
			}
		}
	}
	s.lastHeard = 0
}

// ServeLocal implements Scheme.
func (s *invOnly) ServeLocal(item model.ItemID) (Read, bool, error) {
	if err := s.t.checkServable(); err != nil {
		return Read{}, false, err
	}
	if s.cache == nil {
		return Read{}, false, nil
	}
	if s.versioned && s.marked != 0 {
		return s.serveMarked(item)
	}
	v, ok := s.cache.Get(item)
	if !ok {
		return Read{}, false, nil
	}
	return s.deliver(item, v, SourceCache, 0), true, nil
}

// serveMarked serves a read of a marked transaction (§4.1): only versions
// strictly older than the marking cycle u are acceptable, whether the page
// is still valid or already invalidated-but-not-yet-autoprefetched.
func (s *invOnly) serveMarked(item model.ItemID) (Read, bool, error) {
	if e, ok := s.cache.Peek(item); ok && e.Version.Cycle < s.marked {
		return s.deliver(item, e.Version, SourceCache, 0), true, nil
	}
	if s.opts.AllowChannelOldReads {
		if v, err := s.cur.ReadCurrent(item); err == nil && v.Cycle < s.marked {
			// Old enough on air; let the channel path serve it.
			return Read{}, false, nil
		}
	}
	s.t.doomed = abortErr("%v has no cached version older than %v (versioned cache exhausted)", item, s.marked)
	return Read{}, false, s.t.doomed
}

// ServeChannel implements Scheme.
func (s *invOnly) ServeChannel(item model.ItemID, pos int) (Read, int, error) {
	if err := s.t.checkServable(); err != nil {
		return Read{}, 0, err
	}
	if s.cur.Position(item) < 0 {
		if s.cur.InDatabase(item) {
			// Not in this interval's chunk (§7 h-interval organization);
			// the item comes around in a later becast.
			return Read{}, 0, ErrNextCycle
		}
		return Read{}, 0, fmt.Errorf("core: %v not in the database", item)
	}
	slot := s.cur.NextPosition(item, pos)
	if slot < 0 {
		return Read{}, 0, ErrNextCycle
	}
	v, err := s.cur.ReadCurrent(item)
	if err != nil {
		return Read{}, 0, err
	}
	if s.versioned && s.marked != 0 && v.Cycle >= s.marked {
		s.t.doomed = abortErr("%v current version %v too new for marked transaction (u=%v)", item, v.Cycle, s.marked)
		return Read{}, 0, s.t.doomed
	}
	if s.cache != nil && (s.marked == 0 || v.Cycle < s.marked) {
		s.cache.Put(item, v)
	}
	return s.deliver(item, v, SourceBroadcast, slot), slot, nil
}

func (s *invOnly) deliver(item model.ItemID, v model.Version, src ReadSource, slot int) Read {
	ro := model.ReadObservation{Item: item, Value: v.Value, Version: v.Cycle, Writer: v.Writer}
	s.t.record(ro, s.cur)
	recordRead(s.opts.Recorder, s.cur.Cycle, slot, item, v, src)
	return Read{Obs: ro, Source: src}
}

// Commit implements Scheme.
func (s *invOnly) Commit() (CommitInfo, error) {
	if err := s.t.checkServable(); err != nil {
		s.t.reset()
		return CommitInfo{}, err
	}
	ser := s.cur.Cycle // Theorem 1: state of the commit cycle
	if s.versioned && s.marked != 0 {
		ser = s.marked - 1 // Theorem 4: state before the first invalidation
	}
	info := CommitInfo{
		Reads:              s.t.committedReads(),
		StartCycle:         s.t.start,
		CommitCycle:        s.cur.Cycle,
		SerializationCycle: ser,
	}
	if info.StartCycle == 0 {
		info.StartCycle = s.cur.Cycle
	}
	s.t.emitStaleness(s.opts.Recorder, s.Name(), s.cur.Cycle)
	s.t.reset()
	s.marked = 0
	return info, nil
}

// autoprefetch refreshes every invalidated cache page with the value the
// previous becast carried: the paper's invalidation-with-autoprefetch
// policy (§4), modeled as taking effect by the end of the cycle in which
// the new value was re-broadcast. scratch is the caller's retained
// buffer for the invalid pages; the grown buffer is returned for reuse.
func autoprefetch(c *cache.Cache, prev *broadcast.Bcast, scratch []model.ItemID) []model.ItemID {
	if c == nil || prev == nil {
		return scratch
	}
	scratch = c.AppendInvalidItems(scratch[:0])
	for _, item := range scratch {
		if v, err := prev.ReadCurrent(item); err == nil {
			c.Put(item, v)
		} else {
			c.Remove(item)
		}
	}
	return scratch
}

func flushCache(c *cache.Cache) {
	if c != nil {
		c.Clear()
	}
}
