package server

import (
	"fmt"
	"sort"

	"bpush/internal/det"
	"bpush/internal/model"
	"bpush/internal/sg"
)

// serialCommit is the differential oracle for CommitAndAdvance: the
// original serial commit loop. It validates the whole batch first (with
// the pipeline's TxID-addressed errors, touching no state on rejection),
// then folds each transaction's effects into the store in input order,
// transaction i committing as Seq i, and finishes the cycle exactly as
// the pipeline does.
func (s *Server) serialCommit(txs []model.ServerTx) (*CycleLog, error) {
	next := s.cycle + 1
	for seq, tx := range txs {
		id := model.TxID{Cycle: next, Seq: uint32(seq)}
		readSoFar := make(map[model.ItemID]struct{})
		for _, op := range tx.Ops {
			if err := s.checkItem(op.Item); err != nil {
				return nil, fmt.Errorf("tx %v: %w", id, err)
			}
			switch op.Kind {
			case model.OpRead:
				readSoFar[op.Item] = struct{}{}
			case model.OpWrite:
				if _, ok := readSoFar[op.Item]; !ok {
					return nil, fmt.Errorf("tx %v writes %v without reading it first (strictness assumption)", id, op.Item)
				}
			default:
				return nil, fmt.Errorf("tx %v: invalid op kind %v", id, op.Kind)
			}
		}
	}

	log := &CycleLog{
		Cycle:       next,
		FirstWriter: make(map[model.ItemID]model.TxID),
		LastWriter:  make(map[model.ItemID]model.TxID),
		AllWriters:  make(map[model.ItemID][]model.TxID),
		Delta:       sg.Delta{Cycle: next},
	}
	for seq, tx := range txs {
		id := model.TxID{Cycle: next, Seq: uint32(seq)}
		edges := make(map[sg.Edge]struct{})
		for _, op := range tx.Ops {
			switch op.Kind {
			case model.OpRead:
				s.applyRead(id, op.Item, edges)
			case model.OpWrite:
				s.applyWrite(id, op.Item, next, edges, log)
			}
		}
		log.Delta.Nodes = append(log.Delta.Nodes, id)
		log.Delta.Edges = append(log.Delta.Edges, sortedEdges(edges)...)
	}

	sort.Slice(log.Delta.Nodes, func(i, j int) bool { return log.Delta.Nodes[i].Before(log.Delta.Nodes[j]) })
	sg.SortEdges(log.Delta.Edges)
	log.Updated = det.SortedKeys(log.FirstWriter)
	log.NumCommitted = len(txs)
	s.recordDelta(log)
	s.trimVersions(next)
	s.cycle = next
	return log, nil
}

// sortedEdges extracts a transaction's deduplicated conflict edges from
// their accumulation set in the canonical (To, From) order, so the edge
// list never carries map-iteration order into the cycle log.
func sortedEdges(edges map[sg.Edge]struct{}) []sg.Edge {
	return det.SortedKeysFunc(edges, sg.EdgeLess)
}

func (s *Server) applyRead(id model.TxID, item model.ItemID, edges map[sg.Edge]struct{}) {
	st := &s.items[item-1]
	last := st.versions[len(st.versions)-1].Writer
	if !last.IsZero() && last != id {
		edges[sg.Edge{From: last, To: id}] = struct{}{}
	}
	for _, r := range st.readers {
		if r == id {
			return // already recorded
		}
	}
	st.readers = append(st.readers, id)
}

func (s *Server) applyWrite(id model.TxID, item model.ItemID, next model.Cycle, edges map[sg.Edge]struct{}, log *CycleLog) {
	st := &s.items[item-1]
	cur := &st.versions[len(st.versions)-1]
	if !cur.Writer.IsZero() && cur.Writer != id {
		edges[sg.Edge{From: cur.Writer, To: id}] = struct{}{}
	}
	for _, r := range st.readers {
		if r != id && !r.IsZero() {
			edges[sg.Edge{From: r, To: id}] = struct{}{}
		}
	}
	st.readers = nil

	st.writeCount++
	val := initialValue(item) + model.Value(st.writeCount)
	if cur.Cycle == next {
		// Same-cycle overwrite: the becast carries only the final value
		// of the cycle, so replace in place.
		cur.Value = val
		cur.Writer = id
	} else {
		st.versions = append(st.versions, model.Version{Value: val, Cycle: next, Writer: id})
	}
	if _, ok := log.FirstWriter[item]; !ok {
		log.FirstWriter[item] = id
	}
	log.LastWriter[item] = id
	if ws := log.AllWriters[item]; len(ws) == 0 || ws[len(ws)-1] != id {
		// A transaction writing the same item twice is still one writer.
		log.AllWriters[item] = append(ws, id)
	}
}
