package core

import (
	"fmt"
	"math"

	"bpush/internal/broadcast"
	"bpush/internal/cache"
	"bpush/internal/det"
	"bpush/internal/model"
)

// mvCache implements the multiversion caching method (§4.2, Theorem 5):
// invalidation-only reports combined with older versions retained in the
// client cache. When an item read by the transaction is first updated at
// cycle c_u, subsequent reads must observe the version that was current at
// c_u - 1; if the cache holds it (in either partition) the transaction
// continues, otherwise it aborts. Unlike multiversion broadcast, the
// number of retained versions is a property of each client, not of the
// server.
type mvCache struct {
	session // its cache is multi's current-version partition
	multi   *cache.MultiCache
	cu      model.Cycle // first cycle an item of the readset was invalidated

	// invalidate is the per-cycle invalidation callback, built once at
	// construction; invCycle carries the cycle it applies, so NewCycle
	// allocates no capturing closure.
	invalidate func(model.ItemID)
	invCycle   model.Cycle
}

var _ Scheme = (*mvCache)(nil)

func newMVCache(opts Options) (*mvCache, error) {
	if opts.CacheSize == 0 {
		return nil, fmt.Errorf("core: %v requires a cache", KindMVCache)
	}
	frac := opts.OldFraction
	if frac == 0 {
		frac = 0.5
	}
	if frac < 0 || frac >= 1 {
		return nil, fmt.Errorf("core: old-version fraction %g outside [0, 1)", frac)
	}
	oldCap := int(math.Round(float64(opts.CacheSize) * frac))
	multi, err := cache.NewMulti(opts.CacheSize-oldCap, oldCap)
	if err != nil {
		return nil, err
	}
	s := &mvCache{session: session{opts: opts, cache: multi.Current()}, multi: multi}
	s.invalidate = func(item model.ItemID) { s.multi.Invalidate(item, s.invCycle) }
	return s, nil
}

// Name implements Scheme.
func (s *mvCache) Name() string { return "mv-cache" }

// Kind implements Scheme.
func (s *mvCache) Kind() Kind { return KindMVCache }

// Abort implements Scheme.
func (s *mvCache) Abort() { s.t.reset(); s.cu = 0 }

// NewCycle implements Scheme.
//
//lint:hotpath runs once per client per broadcast cycle
func (s *mvCache) NewCycle(b *broadcast.Bcast) error {
	if ok, err := s.admit(s, b, false); !ok {
		return err
	}
	// Autoprefetch invalidated current pages with the values from the
	// previous cycle, then apply this cycle's report (demoting displaced
	// versions into the old partition).
	s.advance(b)
	s.invCycle = b.Cycle
	b.EachInvalidated(s.opts.BucketGranularity, s.invalidate)
	if s.t.active && s.t.doomed == nil && s.cu == 0 {
		// Sorted readset walk: the degradation event names the first
		// invalidated item, which must not depend on map-iteration order.
		s.keyScratch = det.AppendSortedKeys(s.keyScratch[:0], s.t.readset)
		for _, item := range s.keyScratch {
			if b.Invalidates(item, s.opts.BucketGranularity) {
				recordInvHit(s.opts.Recorder, b.Cycle, item, "degraded")
				s.cu = b.Cycle
				break
			}
		}
	}
	return nil
}

// MissCycle implements Scheme. A missed invalidation report aborts the
// active transaction and empties the current partition; old versions keep
// their validity intervals (which remain true regardless of the gap) per
// the §5.2.2 observation that version caching improves disconnection
// tolerance.
func (s *mvCache) MissCycle(c model.Cycle) error {
	if s.t.active && s.t.doomed == nil {
		s.t.doomed = abortErr("missed cycle %v (invalidation report lost)", c)
	}
	s.multi.FlushCurrent()
	s.cur = nil
	return nil
}

// ServeLocal implements Scheme.
func (s *mvCache) ServeLocal(item model.ItemID) (Read, bool, error) {
	if err := s.t.checkServable(); err != nil {
		return Read{}, false, err
	}
	if s.cu == 0 {
		if v, ok := s.multi.GetCurrent(item); ok {
			return s.deliver(item, v, SourceCache, 0), true, nil
		}
		return Read{}, false, nil
	}
	// Degraded: §4.2 read rule — the version current at cu-1, from cache
	// only ("if such a version is found in cache, then it is read from
	// the cache, otherwise the transaction is aborted").
	if v, ok := s.multi.GetAtOrBefore(item, s.cu-1); ok {
		return s.deliver(item, v, SourceCache, 0), true, nil
	}
	if s.opts.AllowChannelOldReads {
		if v, err := s.cur.ReadCurrent(item); err == nil && v.Cycle < s.cu {
			return Read{}, false, nil // channel path will serve it
		}
	}
	s.t.doomed = abortErr("%v has no cached version current at %v (multiversion cache miss)", item, s.cu-1)
	return Read{}, false, s.t.doomed
}

// ServeChannel implements Scheme.
func (s *mvCache) ServeChannel(item model.ItemID, pos int) (Read, int, error) {
	v, slot, err := s.onAir(item, pos)
	if err != nil {
		return Read{}, 0, err
	}
	if s.cu != 0 {
		if !s.opts.AllowChannelOldReads || v.Cycle >= s.cu {
			s.t.doomed = abortErr("%v must come from cache for a degraded transaction (cu=%v)", item, s.cu)
			return Read{}, 0, s.t.doomed
		}
		return s.deliver(item, v, SourceBroadcast, slot), slot, nil
	}
	s.multi.Put(item, v)
	return s.deliver(item, v, SourceBroadcast, slot), slot, nil
}

// Commit implements Scheme. Theorem 5: a degraded transaction's readset
// corresponds to the state broadcast at cu-1; an undisturbed one reads the
// current state.
func (s *mvCache) Commit() (CommitInfo, error) {
	info, err := s.commit(s.Name())
	if err == nil && s.cu != 0 {
		info.SerializationCycle = s.cu - 1
	}
	s.cu = 0
	return info, err
}
