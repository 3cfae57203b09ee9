// Package core implements the read-only transaction processing schemes of
// Pitoura & Chrysanthis (ICDCS 1999): the paper's primary contribution.
//
// Each scheme runs entirely at the client. It consumes the control
// information the server puts on each becast (invalidation reports,
// serialization-graph deltas, versions) and decides, read by read, whether
// the active read-only transaction can continue and which version of an
// item it must observe, guaranteeing that the readset of every committed
// transaction is a subset of a consistent database state — without ever
// contacting the server, which is what makes the methods scale to
// arbitrary client populations.
//
// The five methods:
//
//   - KindInvOnly (§3.1): abort when an item already read appears in the
//     per-cycle invalidation report. Serializes at the commit cycle (the
//     most current view).
//   - KindVCache (§4.1): invalidation-only with a versioned cache; a
//     "marked" transaction continues from sufficiently old cache entries
//     and serializes at the cycle before its first invalidation.
//   - KindMVBroadcast (§3.2): the server keeps S versions on air; reads
//     pick the newest version no newer than the transaction's start cycle.
//     Never aborts while the span stays within S.
//   - KindMVCache (§4.2): invalidation reports plus older versions
//     retained in a two-partition client cache.
//   - KindSGT (§3.3): a local copy of the serialization graph, updated
//     from broadcast deltas; a read is accepted only if it closes no
//     cycle.
//
// Every scheme implements Scheme; construct one with New.
package core

import (
	"errors"
	"fmt"
	"slices"

	"bpush/internal/broadcast"
	"bpush/internal/cache"
	"bpush/internal/model"
	"bpush/internal/obs"
)

// ErrAborted is returned (possibly wrapped in an *AbortError carrying the
// reason) once the active read-only transaction has been aborted.
var ErrAborted = errors.New("read-only transaction aborted")

// ErrNoTxn is returned by operations that need an active transaction.
var ErrNoTxn = errors.New("no active read-only transaction")

// ErrNextCycle is returned by ServeChannel when the slot carrying the
// needed value has already gone by at the caller's position: access to the
// broadcast is strictly sequential (§2), so the client must wait for the
// next cycle, deliver it via NewCycle, and retry the read there.
var ErrNextCycle = errors.New("value already passed; retry next cycle")

// ErrTxnActive is returned by Begin when a transaction is already active.
var ErrTxnActive = errors.New("read-only transaction already active")

// AbortError carries the reason a transaction aborted. It matches
// ErrAborted under errors.Is.
type AbortError struct {
	Reason string
}

// Error implements error.
func (e *AbortError) Error() string {
	return fmt.Sprintf("read-only transaction aborted: %s", e.Reason)
}

// Is reports that an AbortError is an ErrAborted.
func (e *AbortError) Is(target error) bool { return target == ErrAborted }

func abortErr(format string, args ...any) error {
	//lint:allow hotalloc abort construction is the cold path: at most one per doomed transaction
	return &AbortError{Reason: fmt.Sprintf(format, args...)}
}

// ReadSource says where a read was (or must be) served from, which is what
// the client runtime needs to account latency: cache reads are free,
// broadcast reads wait for the item's slot, overflow reads wait for the
// overflow region trailing the data segment.
type ReadSource int

// Read sources.
const (
	SourceCache ReadSource = iota + 1
	SourceBroadcast
	SourceOverflow
)

// String implements fmt.Stringer.
func (s ReadSource) String() string {
	switch s {
	case SourceCache:
		return "cache"
	case SourceBroadcast:
		return "broadcast"
	case SourceOverflow:
		return "overflow"
	default:
		return fmt.Sprintf("source(%d)", int(s))
	}
}

// obsSource maps the read source onto the trace vocabulary: the data
// segment is "air", client-local state is "cache", and the overflow
// segment's old versions are "version".
func (s ReadSource) obsSource() string {
	switch s {
	case SourceCache:
		return obs.SourceCache
	case SourceOverflow:
		return obs.SourceVersion
	default:
		return obs.SourceAir
	}
}

// recordRead emits the read-served trace event every scheme's deliver
// path shares: the item, where it was served from, the version cycle
// observed, stamped at (cycle, slot).
func recordRead(rec obs.Recorder, cycle model.Cycle, slot int, item model.ItemID, v model.Version, src ReadSource) {
	if rec == nil {
		return
	}
	rec.Record(obs.Event{
		Type:   obs.TypeRead,
		T:      obs.At(cycle, int64(slot)),
		Item:   uint32(item),
		Source: src.obsSource(),
		Ser:    uint64(v.Cycle),
	})
}

// recordInvHit emits the invalidation-hit trace event: an item of the
// active readset was (or may have been) updated, with the reason naming
// what the scheme did about it ("fatal", "marked", "degraded", the
// resync variants, ...).
func recordInvHit(rec obs.Recorder, cycle model.Cycle, item model.ItemID, reason string) {
	if rec == nil {
		return
	}
	rec.Record(obs.Event{
		Type:   obs.TypeInvHit,
		T:      obs.At(cycle, 0),
		Item:   uint32(item),
		Reason: reason,
	})
}

// Read is one served read operation.
type Read struct {
	Obs    model.ReadObservation
	Source ReadSource
}

// CommitInfo describes a committed read-only transaction.
type CommitInfo struct {
	// Reads is the transaction's full observation list, in read order.
	Reads []model.ReadObservation
	// StartCycle is the cycle of the first read.
	StartCycle model.Cycle
	// CommitCycle is the cycle during which the transaction committed.
	CommitCycle model.Cycle
	// SerializationCycle is the becast cycle whose database state the
	// readset corresponds to, per the scheme's correctness theorem. It
	// is 0 for SGT, whose serialization point need not be a broadcast
	// state (§3.3); SGT commits are checked with the graph oracle
	// instead.
	SerializationCycle model.Cycle
}

// Scheme is a client-side read-only transaction processor. Implementations
// are single-client state machines and are not safe for concurrent use.
//
// The client runtime drives a scheme as follows: NewCycle once per becast,
// in cycle order; Begin to open a transaction; then per read operation,
// ServeLocal first (a cache hit costs no channel time) and, if the read
// is not servable locally, ServeChannel, which also reports the
// data-segment slot the client must wait for. When a becast has gone by
// without the client listening, MissCycle tells the scheme so (§5.2.2
// disconnection semantics).
type Scheme interface {
	// Name returns a short stable identifier, e.g. "sgt+cache".
	Name() string
	// Kind returns the scheme kind.
	Kind() Kind
	// NewCycle delivers the next becast. Cycles must arrive in order.
	// The scheme updates its cache/graph state and may internally mark
	// the active transaction aborted; the abort surfaces on the next
	// Serve/Commit call.
	NewCycle(b *broadcast.Bcast) error
	// MissCycle tells the scheme the client did not listen to the becast
	// of the given cycle.
	MissCycle(c model.Cycle) error
	// Begin opens a read-only transaction. At most one may be active.
	Begin() error
	// ServeLocal attempts to serve the read from client-local state
	// (the cache). ok is false when the read needs the channel; an
	// ErrAborted error means the transaction cannot continue.
	ServeLocal(item model.ItemID) (r Read, ok bool, err error)
	// ServeChannel serves the read from the current becast, given the
	// client's position (slot index) on the channel. When the value's
	// slot is still ahead (slot >= pos) the read is performed and the
	// slot returned; when it has already gone by, ErrNextCycle is
	// returned without recording anything, and the client retries after
	// the next NewCycle. Old versions live in overflow slots trailing
	// the data segment.
	ServeChannel(item model.ItemID, pos int) (r Read, slot int, err error)
	// Commit closes the active transaction.
	Commit() (CommitInfo, error)
	// Abort discards the active transaction, if any.
	Abort()
	// Active reports whether a transaction is open (even if already
	// doomed).
	Active() bool
}

// Kind selects a scheme.
type Kind int

// Scheme kinds.
const (
	KindInvOnly Kind = iota + 1
	KindVCache
	KindMVBroadcast
	KindMVCache
	KindSGT
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindInvOnly:
		return "inv-only"
	case KindVCache:
		return "inv-only+vcache"
	case KindMVBroadcast:
		return "multiversion"
	case KindMVCache:
		return "mv-cache"
	case KindSGT:
		return "sgt"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ParseKind maps a scheme name, as the command-line tools spell it, to
// its Kind: inv-only, vcache, multiversion (or mv), mv-cache (or mc), sgt.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "inv-only":
		return KindInvOnly, nil
	case "vcache":
		return KindVCache, nil
	case "multiversion", "mv":
		return KindMVBroadcast, nil
	case "mv-cache", "mc":
		return KindMVCache, nil
	case "sgt":
		return KindSGT, nil
	default:
		return 0, fmt.Errorf("unknown scheme %q", s)
	}
}

// Options configures a scheme.
type Options struct {
	// Kind selects the method.
	Kind Kind
	// CacheSize is the client cache capacity in pages; 0 disables
	// caching. KindVCache and KindMVCache require a cache.
	CacheSize int
	// OldFraction is the fraction of the cache devoted to old versions
	// in the multiversion cache (§4.2). Defaults to 0.5. Only KindMVCache
	// uses it.
	OldFraction float64
	// BucketGranularity, when > 1, processes invalidation reports at
	// bucket granularity (§7): an updated bucket of that many
	// consecutive items invalidates all its items — conservative but
	// cheaper. Supported by the invalidation-based methods (KindInvOnly,
	// KindVCache, KindMVCache).
	BucketGranularity int
	// AllowChannelOldReads is an extension beyond the paper: a marked
	// VCache/MVCache transaction may also read the *broadcast's* current
	// version when its version cycle is old enough, not only cache
	// entries. Sound by the same argument as Theorem 4; off by default
	// to match the paper.
	AllowChannelOldReads bool
	// TolerateDisconnects enables the §5.2.2 enhancements: MVBroadcast
	// continues through missed cycles (version availability already
	// guards correctness) and SGT accepts reads whose version predates
	// the last becast heard before the gap. Without it, any missed
	// cycle aborts the active transaction for every scheme but
	// MVBroadcast-without-cache.
	TolerateDisconnects bool
	// ResyncOnReconnect enables the §5.2.2 resynchronization idea for
	// the invalidation-only family (KindInvOnly, KindVCache): after a
	// gap, instead of flushing the cache and aborting, the client scans
	// the on-air version numbers — every entry carries the cycle its
	// value became current — refreshes its cache from the becast, and
	// keeps the active transaction alive unless one of its read items
	// was updated during the gap (its on-air version postdates the last
	// becast heard). This subsumes the paper's w-window invalidation
	// reports: the data segment itself is a full-window report.
	ResyncOnReconnect bool
	// Recorder, when non-nil, receives the scheme's trace events: every
	// read served (with its {air|cache|version} source), invalidation
	// hits against the active readset, and the SGT method's graph edges
	// and cycle tests. Timestamps are virtual (cycle, offset) pairs, so
	// the event stream is a pure function of the becast stream and the
	// reads issued. Nil means not observed (zero overhead beyond a nil
	// check).
	Recorder obs.Recorder
}

// New constructs the scheme selected by opts.
func New(opts Options) (Scheme, error) {
	if opts.CacheSize < 0 {
		return nil, fmt.Errorf("core: negative cache size %d", opts.CacheSize)
	}
	if opts.BucketGranularity < 0 {
		return nil, fmt.Errorf("core: negative bucket granularity %d", opts.BucketGranularity)
	}
	if opts.BucketGranularity > 1 {
		switch opts.Kind {
		case KindInvOnly, KindVCache, KindMVCache:
		default:
			return nil, fmt.Errorf("core: bucket-granularity reports unsupported for %v", opts.Kind)
		}
	}
	switch opts.Kind {
	case KindInvOnly:
		return newInvOnly(opts, false)
	case KindVCache:
		return newInvOnly(opts, true)
	case KindMVBroadcast:
		return newMVBroadcast(opts)
	case KindMVCache:
		return newMVCache(opts)
	case KindSGT:
		return newSGT(opts)
	default:
		return nil, fmt.Errorf("core: unknown scheme kind %v", opts.Kind)
	}
}

// session is the client protocol the paper's methods share (§2): tune in
// to every becast in order, serve each read from the cache or the air, and
// close the transaction at commit. Every scheme embeds one and keeps only
// its method's policy: how it applies a cycle's control information, its
// read rules and its serialization cycle.
type session struct {
	opts  Options
	cur   *broadcast.Bcast
	prev  *broadcast.Bcast
	cache *cache.Cache // current versions; nil when cacheless
	t     txn
	// keyScratch and invScratch are per-cycle walk scratch, reused.
	keyScratch []model.ItemID
	invScratch []model.ItemID
}

// newSession builds the session of a scheme whose cache, if any, is a
// plain current-version cache of opts.CacheSize pages.
func newSession(opts Options) (session, error) {
	s := session{opts: opts}
	if opts.CacheSize > 0 {
		c, err := cache.New(opts.CacheSize)
		if err != nil {
			return session{}, err
		}
		s.cache = c
	}
	return s, nil
}

// Active implements Scheme.
func (s *session) Active() bool { return s.t.active }

// Begin implements Scheme. A scheme's own per-transaction state is
// already clear here: every Commit and Abort resets it.
func (s *session) Begin() error {
	if s.cur == nil {
		return fmt.Errorf("core: Begin before first cycle")
	}
	return s.t.begin(s.opts.Recorder != nil)
}

// admit opens every NewCycle. It returns false, with a nil error, for a
// duplicate or late frame (already processed). An undeclared gap before b
// is downgraded to explicit misses of sch, unless the scheme has already
// been told of it (declared): a damaged or lost becast that reaches
// NewCycle only as a jump in the cycle numbering is treated exactly like
// a disconnection, feeding the resync/tolerate machinery instead of
// corrupting scheme state.
func (s *session) admit(sch Scheme, b *broadcast.Bcast, declared bool) (bool, error) {
	if s.cur == nil {
		return true, nil
	}
	if b.Cycle <= s.cur.Cycle {
		return false, nil
	}
	if !declared {
		for c := s.cur.Cycle + 1; c < b.Cycle; c++ {
			if err := sch.MissCycle(c); err != nil {
				return false, err
			}
		}
	}
	return true, nil
}

// advance makes b the current becast and refreshes every invalidated
// cache page with the value the previous becast carried: the paper's
// invalidation-with-autoprefetch policy (§4), modeled as taking effect by
// the end of the cycle in which the new value was re-broadcast.
func (s *session) advance(b *broadcast.Bcast) {
	s.prev, s.cur = s.cur, b
	if s.cache == nil || s.prev == nil {
		return
	}
	s.invScratch = s.cache.AppendInvalidItems(s.invScratch[:0])
	for _, item := range s.invScratch {
		if v, err := s.prev.ReadCurrent(item); err == nil {
			s.cache.Put(item, v)
		} else {
			s.cache.Remove(item)
		}
	}
}

// flushCache empties the cache: missed invalidation reports make its
// entries untrustworthy.
func (s *session) flushCache() {
	if s.cache != nil {
		s.cache.Clear()
	}
}

// locate returns the first slot of item on the current becast, once the
// transaction is known to be servable. ErrNextCycle means the item is not
// in this interval's chunk (§7 h-interval organization) and comes around
// in a later becast.
func (s *session) locate(item model.ItemID) (int, error) {
	if err := s.t.checkServable(); err != nil {
		return 0, err
	}
	first := s.cur.Position(item)
	if first < 0 {
		if s.cur.InDatabase(item) {
			return 0, ErrNextCycle
		}
		return 0, fmt.Errorf("core: %v not in the database", item)
	}
	return first, nil
}

// onAir is the prologue of a read of item's current version off the
// channel at position pos: the version and the slot of its next
// occurrence, or ErrNextCycle when that has already gone by.
func (s *session) onAir(item model.ItemID, pos int) (model.Version, int, error) {
	if _, err := s.locate(item); err != nil {
		return model.Version{}, 0, err
	}
	slot := s.cur.NextPosition(item, pos)
	if slot < 0 {
		return model.Version{}, 0, ErrNextCycle
	}
	v, err := s.cur.ReadCurrent(item)
	return v, slot, err
}

// deliver records a served read in the transaction and the trace.
func (s *session) deliver(item model.ItemID, v model.Version, src ReadSource, slot int) Read {
	ro := model.ReadObservation{Item: item, Value: v.Value, Version: v.Cycle, Writer: v.Writer}
	s.t.record(ro, s.cur)
	recordRead(s.opts.Recorder, s.cur.Cycle, slot, item, v, src)
	return Read{Obs: ro, Source: src}
}

// commit closes the active transaction, emitting its staleness events
// under method when it commits. The CommitInfo it returns serializes at
// the commit cycle; a scheme whose theorem names another cycle overwrites
// SerializationCycle, and resets its own per-transaction state, after.
func (s *session) commit(method string) (CommitInfo, error) {
	if err := s.t.checkServable(); err != nil {
		s.t.reset()
		return CommitInfo{}, err
	}
	info := CommitInfo{
		Reads:              s.t.committedReads(),
		StartCycle:         s.t.start,
		CommitCycle:        s.cur.Cycle,
		SerializationCycle: s.cur.Cycle,
	}
	if info.StartCycle == 0 {
		info.StartCycle = s.cur.Cycle
	}
	s.t.emitStaleness(s.opts.Recorder, method, s.cur.Cycle)
	s.t.reset()
	return info, nil
}

// readMeta is the per-read staleness bookkeeping kept only when the
// scheme is observed (Options.Recorder != nil): the cycle the read was
// served at and the newest version cycle the serving becast carried for
// the item (equal to the version read when the becast did not carry the
// item, so the lag degrades to 0 = unknown).
type readMeta struct {
	at  model.Cycle
	cur model.Cycle
}

// txn is the per-transaction state shared by all schemes.
type txn struct {
	active  bool
	track   bool  // keep readMeta for staleness events
	doomed  error // non-nil once the transaction is aborted internally
	start   model.Cycle
	reads   []model.ReadObservation
	readset map[model.ItemID]struct{}
	meta    []readMeta // parallel to reads; only when track
}

// begin opens a transaction on the scratch the previous one left: reads,
// readset and meta keep their capacity across transactions (reset empties
// them), so once warm a transaction allocates only the copy of reads its
// commit hands out (committedReads).
func (t *txn) begin(track bool) error {
	if t.active {
		return ErrTxnActive
	}
	t.reset()
	if t.readset == nil {
		t.readset = make(map[model.ItemID]struct{})
	}
	t.active, t.track = true, track
	return nil
}

func (t *txn) record(ro model.ReadObservation, b *broadcast.Bcast) {
	if t.start == 0 {
		t.start = b.Cycle
	}
	t.reads = append(t.reads, ro)
	t.readset[ro.Item] = struct{}{}
	if t.track {
		cur := ro.Version
		if v, err := b.ReadCurrent(ro.Item); err == nil {
			cur = v.Cycle
		}
		t.meta = append(t.meta, readMeta{at: b.Cycle, cur: cur})
	}
}

// emitStaleness closes the currency accounting of a committing
// transaction: one TypeStaleness event per read, in read order, stamped
// (commit, read index). See obs.TypeStaleness for the field semantics.
// Schemes call it from Commit after checkServable succeeds and before
// the transaction state is reset; aborted transactions emit nothing.
func (t *txn) emitStaleness(rec obs.Recorder, method string, commit model.Cycle) {
	if rec == nil || !t.track {
		return
	}
	for i, ro := range t.reads {
		m := t.meta[i]
		var lag int64
		if m.cur > ro.Version {
			lag = int64(m.cur - ro.Version)
		}
		rec.Record(obs.Event{
			Type:   obs.TypeStaleness,
			T:      obs.At(commit, int64(i)),
			Method: method,
			Item:   uint32(ro.Item),
			Ser:    uint64(ro.Version),
			Cycles: int(commit - ro.Version),
			Span:   int(commit - m.at),
			N:      lag,
		})
	}
}

func (t *txn) checkServable() error {
	if !t.active {
		return ErrNoTxn
	}
	return t.doomed
}

func (t *txn) has(item model.ItemID) bool {
	_, ok := t.readset[item]
	return ok
}

// committedReads returns a fresh copy of the reads for CommitInfo.Reads,
// which outlives the txn's reused buffer: the one object a committed
// transaction allocates. It is nil for a transaction that read nothing.
func (t *txn) committedReads() []model.ReadObservation {
	if len(t.reads) == 0 {
		return nil
	}
	return slices.Clone(t.reads)
}

// reset closes the transaction, keeping the emptied scratch (see begin).
func (t *txn) reset() {
	clear(t.readset)
	*t = txn{reads: t.reads[:0], readset: t.readset, meta: t.meta[:0]}
}
