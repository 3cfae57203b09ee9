// Package server implements the broadcast server's database: a multiversion
// item store over which update transactions execute serially between
// broadcast cycles, producing per-cycle logs (invalidation report, first and
// last writers, serialization-graph delta) from which the becast of the next
// cycle is assembled.
//
// The model follows §2 of Pitoura & Chrysanthis: all updates are performed
// at the server, the content broadcast during cycle c corresponds to the
// database state at the beginning of c (all transactions committed by then),
// and each server transaction reads an item before writing it, so histories
// are strict and the serialization graph's edges always run forward in
// commit order (Claim 1).
package server

import (
	"fmt"

	"bpush/internal/model"
	"bpush/internal/obs"
	"bpush/internal/sg"
)

// Config configures a Server.
type Config struct {
	// DBSize is D, the number of items broadcast (items 1..DBSize).
	DBSize int
	// MaxVersions is S: the server retains, for each item, the versions
	// needed by read-only transactions with span up to S. S=1 keeps only
	// the current version (the invalidation-only and SGT configurations);
	// S>1 enables multiversion broadcast.
	MaxVersions int
	// Workers is the number of commit-pipeline workers CommitAndAdvance
	// spreads the place and execute phases over; 0 or 1 runs the pipeline
	// single-threaded, and a negative count is rejected. The cycle log is byte-identical at every worker
	// count (the pipeline differential suite pins this).
	Workers int
	// Recorder, when non-nil, receives four events per cycle: one
	// producer-phase event per pipeline phase, then one sg-delta event
	// carrying the size of the cycle's serialization-graph delta. The
	// edges themselves are not traced: they are in the cycle's log and on
	// the air. Event fields are worker-count invariant, so the stream is
	// identical at every pipeline worker count, and recording costs the
	// same at every batch size. Nil means not observed.
	Recorder obs.Recorder
}

func (c Config) validate() error {
	if c.DBSize <= 0 {
		return fmt.Errorf("server: DBSize must be positive, got %d", c.DBSize)
	}
	if c.MaxVersions < 1 {
		return fmt.Errorf("server: MaxVersions must be >= 1, got %d", c.MaxVersions)
	}
	if c.Workers < 0 {
		return fmt.Errorf("server: Workers must be >= 0, got %d", c.Workers)
	}
	return nil
}

// CycleLog is everything the server learned while processing one cycle's
// update transactions; the becast of cycle Cycle is assembled from it.
type CycleLog struct {
	// Cycle is the becast cycle that carries these effects: the listed
	// transactions committed during cycle Cycle-1.
	Cycle model.Cycle
	// Updated is the invalidation report: the items written during the
	// previous cycle, in ascending order.
	Updated []model.ItemID
	// FirstWriter maps each updated item to the first transaction that
	// wrote it during the cycle (the target of the query's precedence
	// edge, per Claim 2).
	FirstWriter map[model.ItemID]model.TxID
	// LastWriter maps each updated item to the last transaction that
	// wrote it during the cycle; its value is the one broadcast.
	LastWriter map[model.ItemID]model.TxID
	// AllWriters maps each updated item to every transaction that wrote
	// it during the cycle, in commit order. Used by the full-edge
	// correctness oracle and the Claim 2/3 differential tests; it is not
	// broadcast.
	AllWriters map[model.ItemID][]model.TxID
	// Delta is the difference of the serialization graph: the committed
	// transactions and their direct conflict edges with previously
	// committed transactions.
	Delta sg.Delta
	// NumCommitted is the number of transactions committed.
	NumCommitted int
}

// Server is the broadcast server's database engine. It is not safe for
// concurrent use; the simulator and the network broadcaster drive it from a
// single goroutine, which matches the single-writer model of the paper.
type Server struct {
	cfg   Config
	cycle model.Cycle // cycle of the most recently produced becast
	items []itemState // index i holds item i+1
	// planScratch maps item -> 1+index of the item's plan within the
	// commit pipeline's current batch (0 = untouched). It is allocated
	// once, lazily, and re-zeroed after every batch by walking only the
	// touched items, so planning stays O(batch), not O(DBSize).
	planScratch []int32
	// plansBuf, arenaBuf, and edgeScratch are the commit pipeline's
	// reusable scratch buffers. Commits are strictly sequential (the
	// Server is single-writer), so one set of scratch space serves every
	// batch; nothing in them outlives the commit that filled them.
	// edgeScratch is indexed by partition — each parallel worker owns the
	// buffers of the partitions it claims, so reuse needs no locks.
	plansBuf    []itemPlan
	arenaBuf    []plannedOp
	edgeScratch []partitionScratch
}

type itemState struct {
	// versions holds the retained versions in ascending cycle order; the
	// last element is current.
	versions []model.Version
	// writeCount feeds deterministic, per-item-unique values.
	writeCount int64
	// readers lists, in read order, the transactions that read the item
	// since its last write; a write turns each into an rw edge. The
	// backing array is kept across writes (truncated, not dropped), so a
	// hot item's reader set stops allocating once it has grown.
	readers []model.TxID
}

// New creates a server with the initial database load. Item i starts with
// value i*1e6, version cycle 1 (the first becast), written by the initial
// load pseudo-transaction.
func New(cfg Config) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		cycle: 1,
		items: make([]itemState, cfg.DBSize),
	}
	for i := range s.items {
		s.items[i].versions = []model.Version{{
			Value:  initialValue(model.ItemID(i + 1)),
			Cycle:  1,
			Writer: model.InitialLoadTx,
		}}
	}
	return s, nil
}

func initialValue(id model.ItemID) model.Value {
	return model.Value(int64(id) * 1_000_000)
}

// Cycle returns the cycle number of the most recently produced becast.
func (s *Server) Cycle() model.Cycle { return s.cycle }

// DBSize returns D.
func (s *Server) DBSize() int { return s.cfg.DBSize }

// Versions returns the retained versions of an item, oldest first; the
// last element is the current version. The slice is a read-only view of
// the server's own chain (capacity cut to length, so an append copies),
// valid until the next CommitAndAdvance, which may trim it in place.
func (s *Server) Versions(id model.ItemID) ([]model.Version, error) {
	if err := s.checkItem(id); err != nil {
		return nil, err
	}
	vs := s.items[id-1].versions
	return vs[:len(vs):len(vs)], nil
}

// Snapshot returns the current database state (the state the next becast
// will broadcast).
func (s *Server) Snapshot() model.DBState {
	out := make(model.DBState, len(s.items))
	for i := range s.items {
		vs := s.items[i].versions
		out[i] = vs[len(vs)-1].Value
	}
	return out
}

func (s *Server) checkItem(id model.ItemID) error {
	if id == model.InvalidItem || int(id) > len(s.items) {
		return fmt.Errorf("server: %v out of range 1..%d", id, len(s.items))
	}
	return nil
}

// recordDelta emits the cycle's one sg-delta event: the number of edges
// in its final, deduplicated delta.
func (s *Server) recordDelta(log *CycleLog) {
	rec := s.cfg.Recorder
	if rec == nil {
		return
	}
	rec.Record(obs.Event{
		Type: obs.TypeSGDelta,
		T:    obs.At(log.Cycle, 0),
		N:    int64(len(log.Delta.Edges)),
	})
}

// trimVersions discards versions that no transaction with span <= S could
// still need at becast cycle k: a non-current version v_i is dead once its
// successor's cycle is <= k-S+1, because even the oldest supported starting
// cycle (k-S+1) would already pick the successor or a later version.
func (s *Server) trimVersions(k model.Cycle) {
	if k < model.Cycle(s.cfg.MaxVersions) {
		return
	}
	floor := k - model.Cycle(s.cfg.MaxVersions) + 1
	for i := range s.items {
		vs := s.items[i].versions
		cut := 0
		for cut < len(vs)-1 && vs[cut+1].Cycle <= floor {
			cut++
		}
		if cut > 0 {
			s.items[i].versions = append(vs[:0], vs[cut:]...)
		}
	}
}
