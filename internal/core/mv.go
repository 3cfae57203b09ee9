package core

import (
	"bpush/internal/broadcast"
	"bpush/internal/model"
)

// mvBroadcast implements the multiversion broadcast method (§3.2, Theorem
// 2): the server keeps the previous S versions of updated items on air (in
// overflow buckets trailing the data segment, Figure 2b). A read-only
// transaction whose first read happened at cycle c0 always reads the
// newest version with version cycle <= c0, so its readset equals the
// database state broadcast at c0. Transactions never abort unless their
// span exceeds the number of versions the server retains (a V-multiversion
// server "guarantees the consistency of all transactions with span V or
// smaller").
//
// The method inherently tolerates disconnections: a transaction with span
// s can miss up to S-s cycles and resume, as long as the versions it still
// needs remain on air (§5.2.2).
type mvBroadcast struct {
	session
}

var _ Scheme = (*mvBroadcast)(nil)

func newMVBroadcast(opts Options) (*mvBroadcast, error) {
	ss, err := newSession(opts)
	if err != nil {
		return nil, err
	}
	return &mvBroadcast{session: ss}, nil
}

// Name implements Scheme.
func (s *mvBroadcast) Name() string {
	if s.cache != nil {
		return "multiversion+cache"
	}
	return "multiversion"
}

// Kind implements Scheme.
func (s *mvBroadcast) Kind() Kind { return KindMVBroadcast }

// Abort implements Scheme.
func (s *mvBroadcast) Abort() { s.t.reset() }

// NewCycle implements Scheme.
//
//lint:hotpath runs once per client per broadcast cycle
func (s *mvBroadcast) NewCycle(b *broadcast.Bcast) error {
	// A gap is a tolerated disconnection for this method; its misses
	// only flush the cache.
	if ok, err := s.admit(s, b, false); !ok {
		return err
	}
	s.advance(b)
	if s.cache != nil {
		for _, e := range b.Report {
			s.cache.Invalidate(e.Item)
		}
	}
	return nil
}

// MissCycle implements Scheme. Multiversion broadcast is the one method
// with inherent disconnection tolerance: the active transaction survives;
// whether it can finish depends only on which versions are still on air
// when it resumes. The cache is flushed because missed invalidation
// reports make current entries untrustworthy.
func (s *mvBroadcast) MissCycle(model.Cycle) error {
	s.flushCache()
	return nil
}

// ServeLocal implements Scheme.
func (s *mvBroadcast) ServeLocal(item model.ItemID) (Read, bool, error) {
	if err := s.t.checkServable(); err != nil {
		return Read{}, false, err
	}
	if s.cache == nil {
		return Read{}, false, nil
	}
	v, ok := s.cache.Get(item)
	if !ok {
		return Read{}, false, nil
	}
	// A valid cache entry holds the current value. It qualifies for a
	// fresh transaction (which then starts "now"), or for an ongoing one
	// when the value predates c0.
	if s.t.start != 0 && v.Cycle > s.t.start {
		return Read{}, false, nil // need an older version from the air
	}
	return s.deliver(item, v, SourceCache, 0), true, nil
}

// ServeChannel implements Scheme.
func (s *mvBroadcast) ServeChannel(item model.ItemID, pos int) (Read, int, error) {
	first, err := s.locate(item)
	if err != nil {
		return Read{}, 0, err
	}
	entry, err := s.cur.EntryAt(first)
	if err != nil {
		return Read{}, 0, err
	}
	if s.t.start == 0 || entry.Version.Cycle <= s.t.start {
		// First read, or the current version is old enough; any
		// occurrence still ahead this cycle will do.
		slot := s.cur.NextPosition(item, pos)
		if slot < 0 {
			return Read{}, 0, ErrNextCycle
		}
		if s.cache != nil {
			s.cache.Put(item, entry.Version)
		}
		return s.deliver(item, entry.Version, SourceBroadcast, slot), slot, nil
	}
	// Walk the overflow chain for the newest version at or before c0
	// (versions are stored newest-first).
	for i, ov := range s.cur.OldVersionsOf(item) {
		if ov.Version.Cycle <= s.t.start {
			ovSlot := s.cur.OverflowSlot(int(entry.Overflow) + i)
			if ovSlot < pos {
				return Read{}, 0, ErrNextCycle
			}
			return s.deliver(item, ov.Version, SourceOverflow, ovSlot), ovSlot, nil
		}
	}
	s.t.doomed = abortErr("%v has no on-air version at or before %v (span exceeds retained versions)", item, s.t.start)
	return Read{}, 0, s.t.doomed
}

// Commit implements Scheme. Theorem 2: the readset corresponds to the
// database state broadcast at c0, the cycle of the first read.
func (s *mvBroadcast) Commit() (CommitInfo, error) {
	info, err := s.commit(s.Name())
	info.SerializationCycle = info.StartCycle
	return info, err
}
