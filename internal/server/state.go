package server

import (
	"fmt"
	"slices"

	"bpush/internal/model"
	"bpush/internal/obs"
)

// State is the server's complete durable state: everything a snapshot
// must capture so that a server restored from it commits future cycles
// byte-identically to one that never stopped. That is three things — the
// current cycle number, the retained versions (plus the per-item write
// counter feeding deterministic values), and the cross-cycle reader sets
// (a write of x adds rw edges for every transaction that read x since its
// last write, so the reader sets carry conflict state across cycle
// boundaries). The commit pipeline's scratch buffers are deliberately
// absent: they are lazily allocated caches whose contents never outlive
// one commit.
type State struct {
	// Cycle is the cycle of the most recently produced becast.
	Cycle model.Cycle
	// Items holds one entry per item; index i describes item i+1.
	Items []ItemState
	// Readers lists the pending reader sets in ascending item order.
	// Each entry's Readers slice preserves the server's insertion order —
	// the order rw edges are emitted in — so it must never be re-sorted.
	Readers []ReaderEntry
}

// ItemState is the durable state of one item.
type ItemState struct {
	// WriteCount feeds deterministic, per-item-unique values.
	WriteCount int64
	// Versions are the retained versions in ascending cycle order; the
	// last element is current.
	Versions []model.Version
}

// ReaderEntry records the transactions that read one item since its last
// write, in read order.
type ReaderEntry struct {
	Item    model.ItemID
	Readers []model.TxID
}

// ExportState deep-copies the server's durable state. The result shares
// nothing with the live server, so it stays valid while commits continue.
func (s *Server) ExportState() State {
	st := State{Cycle: s.cycle, Items: make([]ItemState, len(s.items))}
	// Items are walked in ascending order, so reader entries come out in
	// item order; each reader list keeps its insertion order.
	for i, it := range s.items {
		st.Items[i] = ItemState{WriteCount: it.writeCount, Versions: slices.Clone(it.versions)}
		if len(it.readers) > 0 {
			st.Readers = append(st.Readers, ReaderEntry{Item: model.ItemID(i + 1), Readers: slices.Clone(it.readers)})
		}
	}
	return st
}

// Restore builds a server from an exported state: the inverse of
// ExportState. The restored server's future cycle logs are byte-identical
// to those of the server the state was exported from.
func Restore(cfg Config, st State) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(st.Items) != cfg.DBSize {
		return nil, fmt.Errorf("server: state has %d items, config says DBSize=%d", len(st.Items), cfg.DBSize)
	}
	s := &Server{
		cfg:   cfg,
		cycle: st.Cycle,
		items: make([]itemState, len(st.Items)),
	}
	for i, it := range st.Items {
		if len(it.Versions) == 0 {
			return nil, fmt.Errorf("server: state item %d has no versions", i+1)
		}
		s.items[i] = itemState{writeCount: it.WriteCount, versions: slices.Clone(it.Versions)}
	}
	for _, re := range st.Readers {
		if err := s.checkItem(re.Item); err != nil {
			return nil, err
		}
		s.items[re.Item-1].readers = slices.Clone(re.Readers)
	}
	return s, nil
}

// SetRecorder attaches (or detaches, with nil) the trace recorder. The
// durable-log resume path replays archived commits with the recorder
// detached — those cycles' events were already emitted by the run that
// produced them — and attaches it before live production resumes.
func (s *Server) SetRecorder(r obs.Recorder) { s.cfg.Recorder = r }
