package core

import (
	"fmt"
	"slices"

	"bpush/internal/broadcast"
	"bpush/internal/cache"
	"bpush/internal/det"
	"bpush/internal/model"
	"bpush/internal/obs"
	"bpush/internal/sg"
)

// sgt implements the serialization-graph-testing method (§3.3, Theorem 3).
//
// The client maintains a local copy of the (server) serialization graph,
// built from the per-cycle deltas on the broadcast. For the active
// read-only transaction R it keeps only R's *outgoing* precedence edges:
// at the beginning of each cycle, for every item of R's readset that
// appears in the augmented invalidation report, an edge R -> T_f is
// recorded, T_f being the first transaction that overwrote the item during
// the previous cycle (one edge suffices by Claim 2). A read of an item
// last written by T_l closes a cycle exactly when T_l is reachable from
// one of those precedence targets (Claim 3 and Lemma 1); such reads are
// rejected, aborting the transaction. Incoming dependency edges never need
// to be stored, and only the subgraphs from the first invalidation cycle
// onward are retained (the Lemma 1 space bound).
type sgt struct {
	opts Options

	graph  *sg.Graph
	cur    *broadcast.Bcast
	prev   *broadcast.Bcast
	cache  *cache.Cache // nil when cacheless
	t      txn
	resync bool // a cycle was missed; the next NewCycle may jump

	// targets are R's precedence targets (the heads of its outgoing
	// edges), without duplicates, in the order they were found.
	targets []model.TxID
	// keyScratch and invScratch are per-cycle walk scratch, reused.
	keyScratch []model.ItemID
	invScratch []model.ItemID
	// invalidFrom is c_o: the cycle of the first readset invalidation,
	// the floor below which subgraphs can be pruned.
	invalidFrom model.Cycle
	// ceiling, when non-zero, caps acceptable version cycles after a
	// tolerated disconnection: only values that predate the last becast
	// heard before the gap can still be certified (§5.2.2 enhancement).
	ceiling model.Cycle
}

var _ Scheme = (*sgt)(nil)

func newSGT(opts Options) (*sgt, error) {
	s := &sgt{opts: opts, graph: sg.New()}
	if opts.CacheSize > 0 {
		c, err := cache.New(opts.CacheSize)
		if err != nil {
			return nil, err
		}
		s.cache = c
	}
	return s, nil
}

// Name implements Scheme.
func (s *sgt) Name() string {
	if s.cache != nil {
		return "sgt+cache"
	}
	return "sgt"
}

// Kind implements Scheme.
func (s *sgt) Kind() Kind { return KindSGT }

// Active implements Scheme.
func (s *sgt) Active() bool { return s.t.active }

// Begin implements Scheme.
func (s *sgt) Begin() error {
	if s.cur == nil {
		return fmt.Errorf("core: Begin before first cycle")
	}
	if err := s.t.begin(s.opts.Recorder != nil); err != nil {
		return err
	}
	s.clearTxnGraphState()
	return nil
}

// Abort implements Scheme.
func (s *sgt) Abort() {
	s.t.reset()
	s.clearTxnGraphState()
}

func (s *sgt) clearTxnGraphState() {
	// Owner-retained scratch: capacity survives across transactions so
	// the per-cycle target walk stops allocating at steady state.
	s.targets = s.targets[:0]
	s.invalidFrom = 0
	s.ceiling = 0
}

// NewCycle implements Scheme.
//
//lint:hotpath runs once per client per broadcast cycle
func (s *sgt) NewCycle(b *broadcast.Bcast) error {
	if s.cur != nil {
		if b.Cycle <= s.cur.Cycle {
			return nil // duplicate or late frame: already processed
		}
		if b.Cycle != s.cur.Cycle+1 && !s.resync {
			// Undeclared gap: downgrade the lost cycles to misses.
			if err := missRange(s, s.cur.Cycle+1, b.Cycle); err != nil {
				return err
			}
		}
	}
	s.resync = false
	s.prev, s.cur = s.cur, b
	s.invScratch = autoprefetch(s.cache, s.prev, s.invScratch)

	// Space bound (Lemma 1): only subgraphs from c_o onward matter; with
	// no invalidated active transaction, nothing before the current
	// cycle can ever join a cycle through a future query.
	floor := b.Cycle
	if s.t.active && s.invalidFrom != 0 {
		floor = s.invalidFrom
	}
	s.graph.PruneBefore(floor)
	// The delta is checked once per becast: by the producer before it
	// shares the cycle, or here for a becast decoded from a frame. The
	// graph stores the checked block as it is.
	cd, err := b.PrimeIndex()
	if err != nil {
		return fmt.Errorf("core: integrate SG delta: %w", err)
	}
	s.graph.ApplyCompiled(cd)

	if s.cache != nil {
		for _, e := range b.Report {
			s.cache.Invalidate(e.Item)
		}
	}
	if s.t.active && s.t.doomed == nil {
		// Sorted readset walk: the precedence-target list (and with it any
		// downstream ordering) must not inherit map-iteration order.
		s.keyScratch = det.AppendSortedKeys(s.keyScratch[:0], s.t.readset)
		for _, item := range s.keyScratch {
			tf, ok := b.FirstWriter(item) // SGT is defined at item granularity
			if !ok {
				continue
			}
			if slices.Contains(s.targets, tf) {
				continue // at most the readset long: a scan beats a set
			}
			//lint:allow hotalloc targets is owner-retained [:0] scratch; capacity amortizes to steady state
			s.targets = append(s.targets, tf)
			if s.invalidFrom == 0 {
				s.invalidFrom = b.Cycle
			}
			if rec := s.opts.Recorder; rec != nil {
				// R's outgoing precedence edge R -> T_f (Claim 2).
				rec.Record(obs.Event{
					Type: obs.TypeSGEdge,
					T:    obs.At(b.Cycle, 0),
					Item: uint32(item),
					From: "R",
					To:   tf.String(),
				})
			}
		}
	}
	return nil
}

// MissCycle implements Scheme. Without the §5.2.2 enhancement a missed
// delta forfeits serializability for the active transaction. With
// TolerateDisconnects, the transaction survives but may only read values
// that predate the last becast it heard: by Claim 1 any cycle through R
// would then need a path from a missed-cycle transaction back to an older
// one, which cannot exist. The cache is flushed either way — missed
// invalidation reports make current entries untrustworthy.
func (s *sgt) MissCycle(c model.Cycle) error {
	if s.t.active && s.t.doomed == nil {
		if s.opts.TolerateDisconnects {
			if s.ceiling == 0 && s.cur != nil {
				s.ceiling = s.cur.Cycle
			}
		} else {
			s.t.doomed = abortErr("missed cycle %v (serialization-graph delta lost)", c)
		}
	}
	flushCache(s.cache)
	s.resync = true
	return nil
}

// ServeLocal implements Scheme.
func (s *sgt) ServeLocal(item model.ItemID) (Read, bool, error) {
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
	if err := s.accept(item, v); err != nil {
		return Read{}, false, err
	}
	return s.deliver(item, v, SourceCache, 0), true, nil
}

// ServeChannel implements Scheme.
func (s *sgt) ServeChannel(item model.ItemID, pos int) (Read, int, error) {
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
	if err := s.accept(item, v); err != nil {
		return Read{}, 0, err
	}
	if s.cache != nil {
		s.cache.Put(item, v)
	}
	return s.deliver(item, v, SourceBroadcast, slot), slot, nil
}

// accept runs the SGT read test: the read of a value last written by
// v.Writer is admissible iff adding the dependency edge T_l -> R closes no
// cycle, i.e. iff T_l is not reachable from any of R's precedence targets.
func (s *sgt) accept(item model.ItemID, v model.Version) error {
	if s.ceiling != 0 && v.Cycle > s.ceiling {
		s.t.doomed = abortErr("%v version %v postdates disconnection ceiling %v", item, v.Cycle, s.ceiling)
		return s.t.doomed
	}
	if len(s.targets) > 0 && !v.Writer.IsZero() {
		hit := s.graph.ReachableFromAny(s.targets, v.Writer)
		if rec := s.opts.Recorder; rec != nil {
			rec.Record(obs.Event{
				Type: obs.TypeSGCycleTest,
				T:    obs.At(s.cur.Cycle, 0),
				Item: uint32(item),
				To:   v.Writer.String(),
				Hit:  hit,
			})
		}
		if hit {
			s.t.doomed = abortErr("reading %v from %v closes a serialization cycle", item, v.Writer)
			return s.t.doomed
		}
	}
	return nil
}

func (s *sgt) deliver(item model.ItemID, v model.Version, src ReadSource, slot int) Read {
	ro := model.ReadObservation{Item: item, Value: v.Value, Version: v.Cycle, Writer: v.Writer}
	s.t.record(ro, s.cur)
	recordRead(s.opts.Recorder, s.cur.Cycle, slot, item, v, src)
	return Read{Obs: ro, Source: src}
}

// Commit implements Scheme. SGT serializes R against a state produced by a
// serializable execution of a subset of the transactions committed during
// R's lifetime — not necessarily a broadcast state — so SerializationCycle
// is 0 and correctness is certified by the acyclicity argument (the
// simulator's oracle rebuilds the full graph including R).
func (s *sgt) Commit() (CommitInfo, error) {
	if err := s.t.checkServable(); err != nil {
		s.t.reset()
		s.clearTxnGraphState()
		return CommitInfo{}, err
	}
	start := s.t.start
	if start == 0 {
		start = s.cur.Cycle
	}
	info := CommitInfo{
		Reads:              s.t.committedReads(),
		StartCycle:         start,
		CommitCycle:        s.cur.Cycle,
		SerializationCycle: 0,
	}
	s.t.emitStaleness(s.opts.Recorder, s.Name(), s.cur.Cycle)
	s.t.reset()
	s.clearTxnGraphState()
	return info, nil
}
