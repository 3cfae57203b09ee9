package core

import (
	"testing"

	"bpush/internal/model"
)

// cachedKinds are the schemes that keep a client cache, each with one.
var cachedKinds = []Options{
	{Kind: KindInvOnly, CacheSize: 40},
	{Kind: KindVCache, CacheSize: 40},
	{Kind: KindMVBroadcast, CacheSize: 40},
	{Kind: KindMVCache, CacheSize: 40},
	{Kind: KindSGT, CacheSize: 40},
}

// read serves item the way the client runtime does: locally first, then
// from the channel at the start of the cycle.
func read(t *testing.T, s Scheme, item model.ItemID) {
	t.Helper()
	if _, ok, err := s.ServeLocal(item); err != nil {
		t.Fatal(err)
	} else if ok {
		return
	}
	if _, _, err := s.ServeChannel(item, 0); err != nil {
		t.Fatal(err)
	}
}

// TestCachedNewCycleAllocsNothing pins the per-cycle work of every cached
// scheme at exactly 0 objects on a warm cache: each cycle the report
// invalidates 20 cached items, which the next cycle's autoprefetch
// refreshes (and the multiversion cache demotes into its full old
// partition, evicting).
func TestCachedNewCycleAllocsNothing(t *testing.T) {
	const warm, runs = 40, 40
	for _, opts := range cachedKinds {
		s, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(s.Name(), func(t *testing.T) {
			bs := sgtCycles(t, warm+runs+2, 10, false)
			next := 0
			step := func() {
				if err := s.NewCycle(bs[next]); err != nil {
					t.Fatal(err)
				}
				next++
			}
			step()
			if err := s.Begin(); err != nil {
				t.Fatal(err)
			}
			for item := model.ItemID(1); item <= 30; item++ { // 1..20 are reported every cycle
				read(t, s, item)
			}
			s.Abort()
			for next < warm {
				step()
			}
			if got := testing.AllocsPerRun(runs, step); got != 0 {
				t.Errorf("NewCycle with autoprefetch: %v allocs, want 0", got)
			}
		})
	}
}

// TestCommittedQueryAllocsOne pins a warm committed query — Begin, ten
// reads, Commit — at exactly one object for every scheme: the copy of
// its reads that CommitInfo hands out.
func TestCommittedQueryAllocsOne(t *testing.T) {
	for _, opts := range append([]Options{{Kind: KindInvOnly}, {Kind: KindMVBroadcast}, {Kind: KindSGT}}, cachedKinds...) {
		s, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(s.Name(), func(t *testing.T) {
			bs := sgtCycles(t, 3, 10, false)
			for _, b := range bs {
				if err := s.NewCycle(b); err != nil {
					t.Fatal(err)
				}
			}
			var info CommitInfo
			query := func() {
				if err := s.Begin(); err != nil {
					t.Fatal(err)
				}
				for item := model.ItemID(21); item <= 30; item++ { // never reported
					read(t, s, item)
				}
				if info, err = s.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			if got := testing.AllocsPerRun(20, query); got != 1 {
				t.Errorf("committed query: %v allocs, want 1", got)
			}
			if len(info.Reads) != 10 {
				t.Fatalf("committed %d reads, want 10", len(info.Reads))
			}
			held := info.Reads
			query()
			if &held[0] == &info.Reads[0] {
				t.Error("two commits share one Reads slice")
			}
		})
	}
}
