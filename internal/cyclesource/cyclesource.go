// Package cyclesource produces broadcast cycles exactly once and lets any
// number of consumers replay them. It is the produce-once/consume-many
// decomposition of the broadcast channel: one producer runs the server's
// update transactions, assembles each cycle's becast, and (optionally)
// archives the state snapshots and cycle logs the correctness oracle
// needs; consumers attach through Feeds that walk the shared, immutable
// cycle log at their own pace.
//
// This mirrors the paper's architecture directly: the server's work per
// cycle is independent of who is listening, so fleet cost is
// O(server-work + clients x client-work) rather than
// O(clients x server-work). Because every produced becast is immutable
// (Assemble copies the versions it reads from the server) and production
// is serialized under the source's lock, Feeds may be driven from
// different goroutines; each Feed itself is single-consumer.
//
// The cycle log is retained in full by default — it is the replay buffer
// that lets a consumer start from cycle 1 long after production has moved
// on (a fleet worker pool admits clients as slots free up), and memory is
// then proportional to the number of cycles produced. With Config.LogDir
// the log additionally spills to an append-only segmented disk log
// (internal/durlog): every produced becast is encoded once and its frame
// appended before it is published (GetFrame hands that frame on, so the
// air reuses the logged bytes), Config.MemCycles bounds the in-memory
// window to the hottest suffix (cold cycles are served transparently
// from disk, decoded like network-received becasts; the shared-index
// differential suite proves the path is invisible), and a source reopened over the same directory
// resumes production at the next cycle, byte-identical to one that never
// stopped.
package cyclesource

import (
	"fmt"
	"sync"

	"bpush/internal/broadcast"
	"bpush/internal/core"
	"bpush/internal/durlog"
	"bpush/internal/model"
	"bpush/internal/obs"
	"bpush/internal/server"
	"bpush/internal/wire"
	"bpush/internal/workload"
)

// Config parameterizes a cycle producer: the server database, the
// synthetic update workload, the broadcast organization, and the optional
// correctness oracle.
type Config struct {
	// DBSize is D, the number of items (1..DBSize).
	DBSize int
	// Versions is S: versions the server retains on air (>= 1).
	Versions int
	// Workload drives the per-cycle update transactions. Its DBSize must
	// match DBSize. With Chunks > 1 the caller is expected to have scaled
	// TxPerCycle/UpdatesPerCycle down to per-interval amounts.
	Workload workload.ServerConfig
	// Seed feeds the workload generator: the entire cycle stream is a
	// deterministic function of Config.
	Seed int64
	// Workers > 1 spreads each cycle's commit work over that many
	// producer workers via the server's plan/place/execute pipeline; 0 or
	// 1 runs the pipeline single-threaded. The cycle stream is
	// byte-identical at every worker count.
	Workers int

	// Program is the broadcast organization (nil means the flat program
	// over 1..DBSize). Broadcast-disk programs repeat hot items.
	Program broadcast.Program
	// Chunks > 1 enables the h-interval organization: Program is split
	// into this many equal chunks and every produced cycle carries one
	// chunk (with its invalidation report), rotating round-robin. Must
	// divide len(Program).
	Chunks int

	// Check retains state snapshots and cycle logs so committed queries
	// can be verified against the archived database states; see Check on
	// Source. OracleWindow bounds how far back (in cycles, relative to the
	// checked query's commit cycle) the oracle vouches; older queries are
	// reported as outside the window (default 512).
	Check        bool
	OracleWindow int

	// Recorder, when non-nil, receives the producer-side trace events:
	// one cycle-begin/cycle-end pair per produced cycle (with the becast
	// length in slots) and, per commit, the server's producer-phase events
	// and one sg-delta event with the number of serialization-graph edges
	// the cycle's commits contributed (the edges themselves are in the
	// frame). Production is serialized under the source's
	// lock, so the event stream is deterministic no matter how many
	// consumers race to trigger production. A resumed source does not
	// re-emit events for cycles recovered from disk — those were emitted
	// by the run that produced them — so the concatenation of the
	// producer traces across restarts equals the uninterrupted trace.
	Recorder obs.Recorder

	// LogDir, when non-empty, makes the cycle log durable: every produced
	// becast is appended to the segmented disk log in this directory
	// before it is published, and New reopens an existing log — replaying
	// committed cycles (from the latest snapshot when one exists) to
	// rebuild producer state — so production resumes at the next cycle.
	// Recovery tolerates a torn tail: the log is truncated back to the
	// last complete record, never refused.
	LogDir string
	// MemCycles bounds the in-memory cycle window once the log spills to
	// disk: only the newest MemCycles becasts stay resident, older ones
	// are decoded from the log on demand. Zero keeps every cycle in
	// memory (the disk log is then purely for restart durability).
	// Requires LogDir.
	MemCycles int
	// SnapshotEvery appends a full producer snapshot to the log every N
	// cycles, so a restart replays at most N-1 cycles instead of the
	// whole log. Zero means DefaultSnapshotEvery when LogDir is set;
	// negative disables snapshots. Requires LogDir. When Check is set,
	// restarts ignore snapshots and replay from cycle 1 — the oracle's
	// serialization graph cannot be rebuilt from a state snapshot.
	SnapshotEvery int
	// SegmentBytes overrides the disk log's segment capacity (testing
	// and tuning; zero means the durlog default). Requires LogDir.
	SegmentBytes int
	// Metrics, when non-nil, receives the disk log's counters
	// (durlog.append/replay/snapshot/recover). Requires LogDir.
	Metrics *obs.Registry
}

// DefaultSnapshotEvery is the snapshot cadence when LogDir is set and
// SnapshotEvery is zero: frequent enough that restarts replay a bounded
// suffix, rare enough that snapshot bytes stay a small fraction of the
// appended cycle frames at the default workload.
const DefaultSnapshotEvery = 256

func (c Config) validate() error {
	if c.DBSize <= 0 || c.Versions < 1 {
		return fmt.Errorf("cyclesource: invalid DBSize/Versions %d/%d", c.DBSize, c.Versions)
	}
	if c.Workload.DBSize != c.DBSize {
		return fmt.Errorf("cyclesource: workload DBSize %d != DBSize %d", c.Workload.DBSize, c.DBSize)
	}
	if c.Chunks > 1 {
		n := len(c.Program)
		if n == 0 {
			n = c.DBSize
		}
		if n%c.Chunks != 0 {
			return fmt.Errorf("cyclesource: Chunks=%d must divide program length %d", c.Chunks, n)
		}
	}
	if c.Check && c.OracleWindow < 8 {
		return fmt.Errorf("cyclesource: OracleWindow must be >= 8, got %d", c.OracleWindow)
	}
	if c.MemCycles < 0 {
		return fmt.Errorf("cyclesource: MemCycles must be >= 0, got %d", c.MemCycles)
	}
	if c.LogDir == "" {
		switch {
		case c.MemCycles > 0:
			return fmt.Errorf("cyclesource: MemCycles requires LogDir (no disk log to spill to)")
		case c.SnapshotEvery != 0:
			return fmt.Errorf("cyclesource: SnapshotEvery requires LogDir")
		case c.SegmentBytes != 0:
			return fmt.Errorf("cyclesource: SegmentBytes requires LogDir")
		}
	}
	return nil
}

// Source produces each broadcast cycle exactly once, on demand, and caches
// it in a replayable log. Safe for concurrent use.
type Source struct {
	cfg           Config
	mu            sync.RWMutex
	srv           *server.Server
	gen           *workload.ServerGen
	prog          broadcast.Program   // full-cycle program (classic organization)
	chunks        []broadcast.Program // per-interval chunks (§7 h-interval organization)
	log           []*broadcast.Bcast  // the in-memory window; log[i] is becast base+i
	frame         []byte              // the newest becast's logged frame; nil unless cfg.LogDir
	base          int                 // cycles before log[0]: evicted to disk or recovered at resume
	arch          *archive            // nil unless cfg.Check
	dlog          *durlog.Log         // nil unless cfg.LogDir
	snapshotEvery int                 // resolved snapshot cadence (0 = disabled)
}

// New creates a producer. No cycle is produced until the first Get.
func New(cfg Config) (*Source, error) {
	if cfg.Check && cfg.OracleWindow == 0 {
		cfg.OracleWindow = 512
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	// The server starts unobserved: a durable source may have to replay
	// recovered cycles, whose events were emitted by the run that
	// produced them. The recorder attaches once live production can
	// begin, so restart traces concatenate to the uninterrupted trace.
	srv, err := server.New(server.Config{DBSize: cfg.DBSize, MaxVersions: cfg.Versions, Workers: workers})
	if err != nil {
		return nil, err
	}
	gen, err := workload.NewServerGen(cfg.Workload, newRand(cfg.Seed))
	if err != nil {
		return nil, err
	}
	s := &Source{cfg: cfg, srv: srv, gen: gen}
	prog := cfg.Program
	if prog == nil {
		prog = broadcast.FlatProgram(cfg.DBSize)
	}
	if cfg.Chunks > 1 {
		per := len(prog) / cfg.Chunks
		for k := 0; k < cfg.Chunks; k++ {
			s.chunks = append(s.chunks, prog[k*per:(k+1)*per])
		}
	} else {
		s.prog = prog
	}
	if cfg.Check {
		s.arch = newArchive(cfg.OracleWindow)
	}
	if cfg.LogDir != "" {
		if err := s.openDurable(); err != nil {
			return nil, err
		}
	}
	s.srv.SetRecorder(cfg.Recorder)
	return s, nil
}

// openDurable opens (or creates) the disk log and, when it already holds
// cycles, rebuilds the producer state so production resumes at the next
// cycle. The replay path re-commits the recovered cycles' transactions —
// from the latest snapshot when one exists, from cycle 1 otherwise — but
// never re-emits their trace events and never re-appends them to disk.
func (s *Source) openDurable() error {
	dlog, err := durlog.Open(s.cfg.LogDir, durlog.Options{SegmentBytes: s.cfg.SegmentBytes, Metrics: s.cfg.Metrics})
	if err != nil {
		return err
	}
	s.dlog = dlog
	switch {
	case s.cfg.SnapshotEvery > 0:
		s.snapshotEvery = s.cfg.SnapshotEvery
	case s.cfg.SnapshotEvery == 0:
		s.snapshotEvery = DefaultSnapshotEvery
	}
	produced := dlog.Cycles()
	if produced == 0 {
		return nil
	}
	if err := s.resume(produced); err != nil {
		_ = dlog.Close()
		s.dlog = nil
		return err
	}
	return nil
}

// resume fast-forwards the producer past the first `produced` cycles of
// the recovered log. State after cycle c is the initial load plus the
// commits of cycles 2..c (the first becast carries the initial load), so
// a snapshot taken at sequence p skips p-1 commits and p-1 workload
// draws. With the oracle enabled the snapshot shortcut is skipped: the
// archive needs every state, log, and graph edge, so the whole prefix is
// replayed and then pruned to the same floor an uninterrupted spilling
// run would have reached.
func (s *Source) resume(produced int) error {
	replayFrom := 0
	if !s.cfg.Check {
		snap, err := s.dlog.LatestSnapshot()
		if err != nil {
			return err
		}
		if snap != nil && snap.Seq <= uint64(produced) && snap.Seq > 0 {
			srv, err := server.Restore(server.Config{DBSize: s.cfg.DBSize, MaxVersions: s.cfg.Versions, Workers: workerCount(s.cfg.Workers)}, snap.State)
			if err != nil {
				return err
			}
			s.srv = srv
			replayFrom = int(snap.Seq)
			// The generator drew once per committed cycle: discard the
			// draws the snapshot already accounts for.
			for c := 1; c < replayFrom; c++ {
				_ = s.gen.Cycle()
			}
		}
	}
	if s.arch != nil && replayFrom == 0 {
		s.arch.addState(1, s.srv.Snapshot())
	}
	for c := replayFrom; c < produced; c++ {
		if c == 0 {
			continue // cycle 1 is the initial load; nothing committed
		}
		log, err := s.srv.CommitAndAdvance(s.gen.Cycle())
		if err != nil {
			return err
		}
		if s.arch != nil {
			s.arch.addLog(log)
			s.arch.addState(log.Cycle, s.srv.Snapshot())
		}
	}
	s.base = produced
	s.pruneArchive()
	return nil
}

func workerCount(w int) int {
	if w < 1 {
		return 1
	}
	return w
}

// Get returns the i-th becast (0-based), producing cycles up to i if they
// have not been produced yet. Becasts are immutable once returned. Cycles
// inside the in-memory window are returned directly; cycles that spilled
// to disk (or predate a resume) are decoded from the durable log — fresh
// becasts, exactly like those decoded from network frames, which the
// shared-index differential suite proves is observationally invisible.
func (s *Source) Get(i int) (*broadcast.Bcast, error) {
	b, _, err := s.lookup(i)
	return b, err
}

// GetFrame is Get plus the cycle's wire frame. For the newest cycle of a
// durable source the frame is the one production encoded and appended
// to the log, so a station that puts it on air encodes each cycle once;
// any other cycle is encoded afresh. The frame is read-only: nobody
// writes its bytes again, and the source keeps a reference to it until
// the next cycle is produced.
func (s *Source) GetFrame(i int) (*broadcast.Bcast, []byte, error) {
	b, frame, err := s.lookup(i)
	if err == nil && frame == nil {
		frame, err = wire.Encode(b)
	}
	return b, frame, err
}

// lookup serves Get and GetFrame: it returns becast i, producing up to i
// first, and the sealed frame when i is the newest cycle of a durable
// source (nil otherwise).
func (s *Source) lookup(i int) (*broadcast.Bcast, []byte, error) {
	if i < 0 {
		return nil, nil, fmt.Errorf("cyclesource: negative cycle index %d", i)
	}
	s.mu.RLock()
	if i >= s.base && i-s.base < len(s.log) {
		b, frame := s.windowed(i)
		s.mu.RUnlock()
		return b, frame, nil
	}
	if i < s.base {
		// base only grows, so the cycle is on disk for good.
		dlog := s.dlog
		s.mu.RUnlock()
		return readSpilled(dlog, i)
	}
	s.mu.RUnlock()
	s.mu.Lock()
	for i >= s.base+len(s.log) {
		if err := s.produce(); err != nil {
			s.mu.Unlock()
			return nil, nil, err
		}
	}
	if i < s.base {
		// Another producer raced past us and the window slid over i.
		dlog := s.dlog
		s.mu.Unlock()
		return readSpilled(dlog, i)
	}
	b, frame := s.windowed(i)
	s.mu.Unlock()
	return b, frame, nil
}

// windowed returns in-window becast i and, when it is the newest cycle,
// its sealed frame. Caller holds the lock.
func (s *Source) windowed(i int) (*broadcast.Bcast, []byte) {
	j := i - s.base
	if j == len(s.log)-1 {
		return s.log[j], s.frame
	}
	return s.log[j], nil
}

// readSpilled serves a cycle that left the in-memory window.
func readSpilled(dlog *durlog.Log, i int) (*broadcast.Bcast, []byte, error) {
	if dlog == nil {
		return nil, nil, fmt.Errorf("cyclesource: cycle %d spilled but the source is closed", i)
	}
	b, err := dlog.ReadCycle(i)
	return b, nil, err
}

// produce runs one more cycle: commit the next batch of update
// transactions (none for the very first becast, which carries the initial
// load), archive what the oracle needs, and assemble the becast. Caller
// holds the write lock.
func (s *Source) produce() error {
	var (
		b         *broadcast.Bcast
		err       error
		committed int
	)
	if s.base+len(s.log) == 0 {
		if s.arch != nil {
			s.arch.addState(1, s.srv.Snapshot())
		}
		b, err = s.assemble(nil)
	} else {
		// CommitAndAdvance runs the plan/place/execute pipeline with the
		// worker count the server was configured with; the log (and the
		// trace events it emits) do not depend on that count.
		var log *server.CycleLog
		log, err = s.srv.CommitAndAdvance(s.gen.Cycle())
		if err != nil {
			return err
		}
		if s.arch != nil {
			s.arch.addLog(log)
			s.arch.addState(log.Cycle, s.srv.Snapshot())
		}
		committed = log.NumCommitted
		b, err = s.assemble(log)
	}
	if err != nil {
		return err
	}
	// Check the SG delta exactly once, under the production lock, before
	// the becast is published to consumers: every SGT client of the
	// stream then stores the same compiled delta instead of checking it
	// per client per cycle.
	if _, err := b.PrimeIndex(); err != nil {
		return err
	}
	var frame []byte
	if s.dlog != nil {
		// Durability point: the cycle reaches the disk log before any
		// consumer can observe it, so a restart never loses a published
		// cycle (the torn-tail rule only ever discards unpublished
		// bytes). The frame is encoded once, here, and kept for GetFrame.
		if frame, err = wire.Encode(b); err != nil {
			return err
		}
		if err := s.dlog.AppendFrame(frame); err != nil {
			return err
		}
		if seq := s.base + len(s.log) + 1; s.snapshotEvery > 0 && seq%s.snapshotEvery == 0 {
			snap := &durlog.Snapshot{Seq: uint64(seq), State: s.srv.ExportState()}
			if err := s.dlog.AppendSnapshot(snap); err != nil {
				return err
			}
		}
	}
	if rec := s.cfg.Recorder; rec != nil {
		rec.Record(obs.Event{Type: obs.TypeCycleBegin, T: obs.At(b.Cycle, 0)})
		rec.Record(obs.Event{Type: obs.TypeCycleEnd, T: obs.At(b.Cycle, int64(b.Len())), Slots: int64(b.Len()), N: int64(committed)})
	}
	s.log = append(s.log, b)
	s.frame = frame
	if s.cfg.MemCycles > 0 && len(s.log) > s.cfg.MemCycles {
		// Slide the window: drop the oldest becasts from memory (they
		// stay readable from the disk log) and reuse the backing array
		// so a long-running producer's footprint stays flat.
		n := len(s.log) - s.cfg.MemCycles
		k := copy(s.log, s.log[n:])
		for j := k; j < len(s.log); j++ {
			s.log[j] = nil
		}
		s.log = s.log[:k]
		s.base += n
	}
	s.pruneArchive()
	return nil
}

// pruneArchive drops archived states and cycle logs that no in-window
// check can reach anymore. It only runs once cycles spill to disk
// (LogDir with a bounded MemCycles): an in-memory source keeps total
// retention, preserving the historical guarantee that a consumer
// starting from cycle 1 arbitrarily late can still have its earliest
// commits checked. The floor is a pure function of how many cycles have
// been produced, so a resumed source prunes to exactly the floor an
// uninterrupted run would have reached.
func (s *Source) pruneArchive() {
	if s.arch == nil || s.dlog == nil || s.cfg.MemCycles == 0 {
		return
	}
	total := s.base + len(s.log)
	// Oldest becast still in memory is cycle total-MemCycles+1; a
	// consumer walking the window commits no earlier than that, and its
	// check spans at most `window` cycles further back.
	floor := total - s.cfg.MemCycles + 1 - int(s.arch.window)
	if floor > 1 {
		s.arch.prune(model.Cycle(floor))
	}
}

func (s *Source) assemble(log *server.CycleLog) (*broadcast.Bcast, error) {
	if len(s.chunks) == 0 {
		return broadcast.Assemble(s.srv, log, s.prog)
	}
	chunk := s.chunks[int(s.srv.Cycle()-1)%len(s.chunks)]
	return broadcast.AssembleChunk(s.srv, log, chunk)
}

// Produced returns the number of cycles produced so far, including
// cycles recovered from a durable log at resume and cycles that have
// spilled out of the in-memory window.
func (s *Source) Produced() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return uint64(s.base + len(s.log))
}

// Close releases the durable log; a memory-only source ignores it. The
// source must not be used after Close — consumers still holding Feeds
// get errors for any cycle outside the in-memory window.
func (s *Source) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dlog == nil {
		return nil
	}
	err := s.dlog.Close()
	s.dlog = nil
	return err
}

// Check verifies a committed query against the archived cycle stream; it
// requires Config.Check. The verdict depends only on the query and the
// (deterministic) stream up to its commit cycle — never on how far
// production has advanced — so checks are reproducible regardless of how
// many consumers share the source or how their executions interleave.
func (s *Source) Check(info core.CommitInfo) error {
	if s.arch == nil {
		return fmt.Errorf("cyclesource: oracle not enabled (Config.Check)")
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.arch.check(info)
}

// NewFeed returns a new consumer cursor positioned at the first cycle.
// The Feed implements the client runtime's Feed interface; each Feed is
// for a single consumer, but distinct Feeds may run concurrently.
func (s *Source) NewFeed() *Feed {
	return &Feed{src: s}
}

// NewFeedAt returns a consumer cursor positioned at the given 0-based
// cycle index — a late joiner that tunes in mid-stream. On a durable
// source the cycles behind the cursor may live only on disk; the feed
// serves them identically (the snapshot-catch-up differential pins
// this). The index may be at or beyond the production frontier, in which
// case the first Next produces up to it.
func (s *Source) NewFeedAt(i int) *Feed {
	if i < 0 {
		i = 0
	}
	return &Feed{src: s, next: i}
}

// maxTrackedLens bounds the per-consumer becast-length sample used for
// mean-length metrics, matching the simulator's historical cap.
const maxTrackedLens = 4096

// Feed walks the shared cycle log one becast per Next call.
type Feed struct {
	src    *Source
	next   int
	cycles uint64
	lens   []int
}

// Next returns the next becast, producing it if this consumer is the
// furthest ahead.
func (f *Feed) Next() (*broadcast.Bcast, error) {
	b, err := f.src.Get(f.next)
	if err != nil {
		return nil, err
	}
	f.next++
	f.cycles++
	if len(f.lens) < maxTrackedLens {
		f.lens = append(f.lens, b.Len())
	}
	return b, nil
}

// Frame returns the wire frame of the becast the last Next returned: the
// bytes a station airs for that cycle (see Source.GetFrame).
func (f *Feed) Frame() ([]byte, error) {
	if f.cycles == 0 {
		return nil, fmt.Errorf("cyclesource: Frame before Next")
	}
	_, frame, err := f.src.GetFrame(f.next - 1)
	return frame, err
}

// Cycles returns the number of becasts this consumer has taken.
func (f *Feed) Cycles() uint64 { return f.cycles }

// Lens returns the lengths (data + overflow slots) of the becasts this
// consumer has taken, capped at the first 4096. The slice aliases the
// feed's sample; callers must not modify it.
func (f *Feed) Lens() []int { return f.lens }
