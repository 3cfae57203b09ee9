package server

import (
	"testing"

	"bpush/internal/model"
	"bpush/internal/sg"
	"bpush/internal/sgtest"
)

func mustNew(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func rw(item model.ItemID) []model.Op {
	return []model.Op{{Kind: model.OpRead, Item: item}, {Kind: model.OpWrite, Item: item}}
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{name: "valid", cfg: Config{DBSize: 10, MaxVersions: 1}},
		{name: "zero size", cfg: Config{DBSize: 0, MaxVersions: 1}, wantErr: true},
		{name: "zero versions", cfg: Config{DBSize: 10, MaxVersions: 0}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(tt.cfg)
			if (err != nil) != tt.wantErr {
				t.Errorf("New(%+v) error = %v, wantErr %v", tt.cfg, err, tt.wantErr)
			}
		})
	}
}

func TestInitialState(t *testing.T) {
	s := mustNew(t, Config{DBSize: 5, MaxVersions: 3})
	if s.Cycle() != 1 {
		t.Errorf("Cycle() = %v, want 1", s.Cycle())
	}
	v, err := s.Current(3)
	if err != nil {
		t.Fatal(err)
	}
	if v.Cycle != 1 || !v.Writer.IsZero() {
		t.Errorf("initial version = %+v, want cycle 1 written by initial load", v)
	}
	if _, err := s.Current(0); err == nil {
		t.Error("Current(0) succeeded, want error")
	}
	if _, err := s.Current(6); err == nil {
		t.Error("Current(6) succeeded, want error")
	}
}

func TestCommitAndAdvanceBasics(t *testing.T) {
	s := mustNew(t, Config{DBSize: 10, MaxVersions: 3})
	before, err := s.Current(4)
	if err != nil {
		t.Fatal(err)
	}
	log, err := s.CommitAndAdvance([]model.ServerTx{{Ops: rw(4)}, {Ops: rw(7)}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Cycle() != 2 || log.Cycle != 2 {
		t.Errorf("cycle after commit = %v/%v, want 2/2", s.Cycle(), log.Cycle)
	}
	if log.NumCommitted != 2 {
		t.Errorf("NumCommitted = %d, want 2", log.NumCommitted)
	}
	if len(log.Updated) != 2 || log.Updated[0] != 4 || log.Updated[1] != 7 {
		t.Errorf("Updated = %v, want [4 7] sorted", log.Updated)
	}
	after, err := s.Current(4)
	if err != nil {
		t.Fatal(err)
	}
	if after.Value == before.Value {
		t.Error("write did not change the value")
	}
	if after.Cycle != 2 {
		t.Errorf("new version cycle = %v, want 2", after.Cycle)
	}
	if after.Writer != (model.TxID{Cycle: 2, Seq: 0}) {
		t.Errorf("writer = %v, want tx(2.0)", after.Writer)
	}
	if fw := log.FirstWriter[4]; fw != (model.TxID{Cycle: 2, Seq: 0}) {
		t.Errorf("FirstWriter[4] = %v, want tx(2.0)", fw)
	}
}

func TestWriteWithoutReadRejected(t *testing.T) {
	s := mustNew(t, Config{DBSize: 10, MaxVersions: 1})
	_, err := s.CommitAndAdvance([]model.ServerTx{{Ops: []model.Op{{Kind: model.OpWrite, Item: 1}}}})
	if err == nil {
		t.Error("blind write accepted, want strictness error")
	}
}

func TestInvalidItemRejected(t *testing.T) {
	s := mustNew(t, Config{DBSize: 10, MaxVersions: 1})
	_, err := s.CommitAndAdvance([]model.ServerTx{{Ops: rw(11)}})
	if err == nil {
		t.Error("out-of-range item accepted, want error")
	}
}

func TestSameCycleOverwriteCoalesces(t *testing.T) {
	s := mustNew(t, Config{DBSize: 10, MaxVersions: 5})
	log, err := s.CommitAndAdvance([]model.ServerTx{{Ops: rw(1)}, {Ops: rw(1)}})
	if err != nil {
		t.Fatal(err)
	}
	vs, err := s.Versions(1)
	if err != nil {
		t.Fatal(err)
	}
	// Initial version + one coalesced version for cycle 2.
	if len(vs) != 2 {
		t.Fatalf("len(Versions) = %d, want 2 (same-cycle writes coalesce)", len(vs))
	}
	cur := vs[len(vs)-1]
	if cur.Writer != (model.TxID{Cycle: 2, Seq: 1}) {
		t.Errorf("current writer = %v, want the LAST writer tx(2.1)", cur.Writer)
	}
	if log.FirstWriter[1] != (model.TxID{Cycle: 2, Seq: 0}) {
		t.Errorf("FirstWriter = %v, want tx(2.0)", log.FirstWriter[1])
	}
	if log.LastWriter[1] != (model.TxID{Cycle: 2, Seq: 1}) {
		t.Errorf("LastWriter = %v, want tx(2.1)", log.LastWriter[1])
	}
	if got := log.AllWriters[1]; len(got) != 2 {
		t.Errorf("AllWriters = %v, want both writers", got)
	}
}

func TestConflictEdges(t *testing.T) {
	s := mustNew(t, Config{DBSize: 10, MaxVersions: 1})
	// T0 reads 1, writes 1. T1 reads 1 (wr from T0), reads 2, writes 2.
	// T2 reads 2, writes 2 -> wr/ww from T1, and rw from T1's read? T1
	// wrote 2 last, so T2's write gets ww from T1.
	txs := []model.ServerTx{
		{Ops: rw(1)},
		{Ops: []model.Op{{Kind: model.OpRead, Item: 1}, {Kind: model.OpRead, Item: 2}, {Kind: model.OpWrite, Item: 2}}},
		{Ops: rw(2)},
	}
	log, err := s.CommitAndAdvance(txs)
	if err != nil {
		t.Fatal(err)
	}
	want := map[sg.Edge]bool{
		{From: tid(2, 0), To: tid(2, 1)}: true, // T1 read item1 written by T0
		{From: tid(2, 1), To: tid(2, 2)}: true, // T2 read+wrote item2 after T1 wrote it
	}
	got := make(map[sg.Edge]bool, len(log.Delta.Edges))
	for _, e := range log.Delta.Edges {
		got[e] = true
	}
	for e := range want {
		if !got[e] {
			t.Errorf("missing edge %v -> %v", e.From, e.To)
		}
	}
	for e := range got {
		if !e.From.Before(e.To) {
			t.Errorf("edge %v -> %v violates commit order", e.From, e.To)
		}
	}
}

func TestCrossCycleConflictEdges(t *testing.T) {
	s := mustNew(t, Config{DBSize: 10, MaxVersions: 1})
	if _, err := s.CommitAndAdvance([]model.ServerTx{{Ops: rw(5)}}); err != nil {
		t.Fatal(err)
	}
	// Next cycle: a transaction reads item 5 -> wr edge from tx(2.0).
	log, err := s.CommitAndAdvance([]model.ServerTx{
		{Ops: []model.Op{{Kind: model.OpRead, Item: 5}, {Kind: model.OpRead, Item: 6}, {Kind: model.OpWrite, Item: 6}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range log.Delta.Edges {
		if e.From == tid(2, 0) && e.To == tid(3, 0) {
			found = true
		}
	}
	if !found {
		t.Errorf("missing cross-cycle wr edge tx(2.0) -> tx(3.0); edges = %v", log.Delta.Edges)
	}
}

func TestCrossCycleReaderPrecedenceEdge(t *testing.T) {
	s := mustNew(t, Config{DBSize: 10, MaxVersions: 1})
	// Cycle 1: T reads item 5 (and writes something else).
	if _, err := s.CommitAndAdvance([]model.ServerTx{
		{Ops: []model.Op{{Kind: model.OpRead, Item: 5}, {Kind: model.OpRead, Item: 9}, {Kind: model.OpWrite, Item: 9}}},
	}); err != nil {
		t.Fatal(err)
	}
	// Cycle 2: U writes item 5 -> rw precedence edge reader -> U.
	log, err := s.CommitAndAdvance([]model.ServerTx{{Ops: rw(5)}})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range log.Delta.Edges {
		if e.From == tid(2, 0) && e.To == tid(3, 0) {
			found = true
		}
	}
	if !found {
		t.Errorf("missing rw precedence edge tx(2.0) -> tx(3.0); edges = %v", log.Delta.Edges)
	}
}

func TestDeltaAppliesCleanlyToGraph(t *testing.T) {
	s := mustNew(t, Config{DBSize: 50, MaxVersions: 1})
	g, ring := sgtest.New(), sg.New()
	txs := make([]model.ServerTx, 5)
	for i := range txs {
		item := model.ItemID(i*7%50 + 1)
		txs[i] = model.ServerTx{Ops: []model.Op{
			{Kind: model.OpRead, Item: item},
			{Kind: model.OpRead, Item: item%50 + 1},
			{Kind: model.OpWrite, Item: item%50 + 1},
		}}
	}
	for cyc := 0; cyc < 20; cyc++ {
		log, err := s.CommitAndAdvance(txs)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Apply(log.Delta); err != nil {
			t.Fatalf("cycle %d: %v", cyc, err)
		}
		// The client ring accepts only its cycle's canonical in-edge
		// block: sorted, duplicate-free, every edge into this cycle.
		if err := ring.Apply(log.Delta); err != nil {
			t.Fatalf("cycle %d: delta is not a canonical in-edge block: %v", cyc, err)
		}
	}
	if !g.IsAcyclic() {
		t.Error("server-produced serialization graph has a cycle")
	}
}

func TestVersionRetention(t *testing.T) {
	const s3 = 3
	s := mustNew(t, Config{DBSize: 4, MaxVersions: s3})
	// Update item 1 every cycle for 8 cycles.
	for i := 0; i < 8; i++ {
		if _, err := s.CommitAndAdvance([]model.ServerTx{{Ops: rw(1)}}); err != nil {
			t.Fatal(err)
		}
	}
	vs, err := s.Versions(1)
	if err != nil {
		t.Fatal(err)
	}
	// A transaction with span <= 3 starting at cycle >= 9-3+1 = 7 must be
	// servable: versions for starting cycles 7, 8, 9.
	k := s.Cycle()
	floor := k - s3 + 1
	for c0 := floor; c0 <= k; c0++ {
		best := model.Cycle(0)
		for _, v := range vs {
			if v.Cycle <= c0 && v.Cycle > best {
				best = v.Cycle
			}
		}
		if best == 0 {
			t.Errorf("no version servable for start cycle %v; versions %v", c0, vs)
		}
	}
	if len(vs) > s3+1 {
		t.Errorf("retained %d versions, want <= S+1 = %d", len(vs), s3+1)
	}
	// Item 2 was never updated: its single initial version survives.
	vs2, err := s.Versions(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs2) != 1 || vs2[0].Cycle != 1 {
		t.Errorf("untouched item versions = %v, want the single initial version", vs2)
	}
}

func TestSnapshotMatchesCurrents(t *testing.T) {
	s := mustNew(t, Config{DBSize: 6, MaxVersions: 2})
	if _, err := s.CommitAndAdvance([]model.ServerTx{{Ops: rw(2)}, {Ops: rw(5)}}); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	for i := 1; i <= 6; i++ {
		cur, err := s.Current(model.ItemID(i))
		if err != nil {
			t.Fatal(err)
		}
		got, err := snap.Get(model.ItemID(i))
		if err != nil {
			t.Fatal(err)
		}
		if got != cur.Value {
			t.Errorf("snapshot[%d] = %d, current = %d", i, got, cur.Value)
		}
	}
}

func TestValuesMonotonePerItem(t *testing.T) {
	s := mustNew(t, Config{DBSize: 3, MaxVersions: 4})
	var prev model.Value
	for i := 0; i < 5; i++ {
		if _, err := s.CommitAndAdvance([]model.ServerTx{{Ops: rw(2)}}); err != nil {
			t.Fatal(err)
		}
		cur, err := s.Current(2)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && cur.Value <= prev {
			t.Errorf("value did not advance: %d -> %d", prev, cur.Value)
		}
		prev = cur.Value
	}
}

// TestVersionsViewIsCapped pins the read-only view's guard: Versions
// returns the server's own chain without copying, but with capacity cut
// to length, so a caller's append copies instead of writing into the
// slot the next commit's version will occupy.
func TestVersionsViewIsCapped(t *testing.T) {
	s := mustNew(t, Config{DBSize: 2, MaxVersions: 2})
	if _, err := s.CommitAndAdvance([]model.ServerTx{{Ops: rw(1)}}); err != nil {
		t.Fatal(err)
	}
	vs, err := s.Versions(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 2 || cap(vs) != len(vs) {
		t.Fatalf("Versions(1): len %d cap %d, want len 2 and cap == len", len(vs), cap(vs))
	}
	_ = append(vs, model.Version{Value: -1, Cycle: 99})
	if _, err := s.CommitAndAdvance([]model.ServerTx{{Ops: rw(1)}}); err != nil {
		t.Fatal(err)
	}
	vs2, err := s.Versions(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vs2 {
		if v.Value == -1 || v.Cycle == 99 {
			t.Fatalf("caller's append reached the chain: %+v", vs2)
		}
	}
	cur, err := s.Current(1)
	if err != nil {
		t.Fatal(err)
	}
	if vs2[len(vs2)-1] != cur {
		t.Errorf("view's last version %+v, Current %+v", vs2[len(vs2)-1], cur)
	}
}

func TestEmptyCycle(t *testing.T) {
	s := mustNew(t, Config{DBSize: 3, MaxVersions: 1})
	log, err := s.CommitAndAdvance(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Updated) != 0 || log.NumCommitted != 0 {
		t.Errorf("empty cycle produced log %+v", log)
	}
	if s.Cycle() != 2 {
		t.Errorf("Cycle() = %v, want 2", s.Cycle())
	}
}

func tid(c model.Cycle, s uint32) model.TxID { return model.TxID{Cycle: c, Seq: s} }
