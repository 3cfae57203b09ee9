package broadcast

import (
	"testing"
	"unsafe"

	"bpush/internal/model"
	"bpush/internal/server"
	"bpush/internal/sg"
)

func newServer(t *testing.T, d, s int) *server.Server {
	t.Helper()
	srv, err := server.New(server.Config{DBSize: d, MaxVersions: s})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func commit(t *testing.T, srv *server.Server, items ...model.ItemID) *server.CycleLog {
	t.Helper()
	txs := make([]model.ServerTx, len(items))
	for i, it := range items {
		txs[i] = model.ServerTx{Ops: []model.Op{
			{Kind: model.OpRead, Item: it},
			{Kind: model.OpWrite, Item: it},
		}}
	}
	log, err := srv.CommitAndAdvance(txs)
	if err != nil {
		t.Fatal(err)
	}
	return log
}

func TestAssembleInitialCycle(t *testing.T) {
	srv := newServer(t, 10, 1)
	b, err := Assemble(srv, nil, FlatProgram(10))
	if err != nil {
		t.Fatal(err)
	}
	if b.Cycle != 1 {
		t.Errorf("Cycle = %v, want 1", b.Cycle)
	}
	if len(b.Report) != 0 || len(b.Overflow) != 0 {
		t.Errorf("initial becast has report %v overflow %v, want empty", b.Report, b.Overflow)
	}
	if len(b.Entries) != 10 {
		t.Fatalf("len(Entries) = %d, want 10", len(b.Entries))
	}
	for i, e := range b.Entries {
		if e.Item != model.ItemID(i+1) {
			t.Errorf("slot %d carries %v, want item#%d", i, e.Item, i+1)
		}
		if e.Overflow != -1 {
			t.Errorf("slot %d overflow ptr = %d, want -1", i, e.Overflow)
		}
	}
}

func TestAssembleReportMatchesLog(t *testing.T) {
	srv := newServer(t, 10, 1)
	log := commit(t, srv, 3, 7)
	b, err := Assemble(srv, log, FlatProgram(10))
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Report) != 2 {
		t.Fatalf("report = %v, want two entries", b.Report)
	}
	if b.Report[0].Item != 3 || b.Report[1].Item != 7 {
		t.Errorf("report items = %v,%v, want 3,7", b.Report[0].Item, b.Report[1].Item)
	}
	if b.Report[0].FirstWriter != (model.TxID{Cycle: 2, Seq: 0}) {
		t.Errorf("first writer of 3 = %v, want tx(2.0)", b.Report[0].FirstWriter)
	}
	if b.NumCommitted != 2 {
		t.Errorf("NumCommitted = %d, want 2", b.NumCommitted)
	}
}

func TestAssembleRejectsStaleLog(t *testing.T) {
	srv := newServer(t, 5, 1)
	log := commit(t, srv, 1)
	commit(t, srv, 2) // advances past log.Cycle
	if _, err := Assemble(srv, log, FlatProgram(5)); err == nil {
		t.Error("Assemble with stale log succeeded, want error")
	}
}

func TestAssembleRejectsIncompleteProgram(t *testing.T) {
	srv := newServer(t, 5, 1)
	if _, err := Assemble(srv, nil, FlatProgram(4)); err == nil {
		t.Error("Assemble with incomplete program succeeded, want error")
	}
	if _, err := Assemble(srv, nil, Program{1, 2, 3, 4, 9}); err == nil {
		t.Error("Assemble with out-of-range program succeeded, want error")
	}
}

func TestOverflowLayout(t *testing.T) {
	srv := newServer(t, 6, 3)
	commit(t, srv, 2) // version at cycle 2
	commit(t, srv, 2) // version at cycle 3
	log := commit(t, srv, 5)
	b, err := Assemble(srv, log, FlatProgram(6))
	if err != nil {
		t.Fatal(err)
	}
	// At becast cycle 4 with S=3, supported start cycles are 2..4, so the
	// item-2 initial version (cycle 1) has been discarded: a span-3
	// transaction starting at cycle 2 already prefers the cycle-2 value.
	olds2 := b.OldVersionsOf(2)
	if len(olds2) != 1 {
		t.Fatalf("item 2 old versions = %v, want 1 (cycle-1 version trimmed)", olds2)
	}
	if olds2[0].Version.Cycle != 2 {
		t.Errorf("item 2 old version cycle = %v, want 2", olds2[0].Version.Cycle)
	}
	olds5 := b.OldVersionsOf(5)
	if len(olds5) != 1 || olds5[0].Version.Cycle != 1 {
		t.Errorf("item 5 old versions = %v, want single cycle-1 version", olds5)
	}
	if b.OldVersionsOf(1) != nil {
		t.Error("untouched item reports old versions")
	}
	if got := b.Len(); got != 6+2 {
		t.Errorf("Len() = %d, want 8 (6 data + 2 overflow)", got)
	}
	// Overflow slots trail the data segment.
	if s := b.OverflowSlot(0); s != 6 {
		t.Errorf("OverflowSlot(0) = %d, want 6", s)
	}
}

func TestPositionsFixedAcrossCycles(t *testing.T) {
	srv := newServer(t, 8, 3)
	prog := FlatProgram(8)
	b1, err := Assemble(srv, nil, prog)
	if err != nil {
		t.Fatal(err)
	}
	log := commit(t, srv, 4, 6)
	b2, err := Assemble(srv, log, prog)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 8; i++ {
		if b1.Position(model.ItemID(i)) != b2.Position(model.ItemID(i)) {
			t.Errorf("item %d moved between cycles: %d -> %d (overflow organization must keep offsets fixed)",
				i, b1.Position(model.ItemID(i)), b2.Position(model.ItemID(i)))
		}
	}
	if b1.Position(99) != -1 {
		t.Error("Position of unknown item != -1")
	}
}

// bestVersionAtOrBefore applies the multiversion read rule of §3.2 to
// b through its slot lookup and overflow walk, as the multiversion
// scheme does: the newest on-air version of item with version cycle
// <= c0, and whether it is served from the overflow segment. ok is false
// when no on-air version is old enough (the span exceeded S).
func bestVersionAtOrBefore(b *Bcast, item model.ItemID, c0 model.Cycle) (v model.Version, fromOverflow, ok bool) {
	p := b.Position(item)
	if p < 0 {
		return model.Version{}, false, false
	}
	if cur := b.Entries[p].Version; cur.Cycle <= c0 {
		return cur, false, true
	}
	for _, ov := range b.OldVersionsOf(item) {
		if ov.Version.Cycle <= c0 {
			return ov.Version, true, true
		}
	}
	return model.Version{}, false, false
}

// TestBestVersionAtOrBefore pins the overflow layout against the §3.2
// read rule: the current version, then older versions newest first.
func TestBestVersionAtOrBefore(t *testing.T) {
	srv := newServer(t, 4, 4)
	commit(t, srv, 1) // item1 version cycle 2
	commit(t, srv, 1) // item1 version cycle 3
	log := commit(t, srv, 1)
	b, err := Assemble(srv, log, FlatProgram(4))
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name         string
		c0           model.Cycle
		wantCycle    model.Cycle
		wantOverflow bool
		wantOK       bool
	}{
		{name: "current qualifies", c0: 4, wantCycle: 4, wantOverflow: false, wantOK: true},
		{name: "future start", c0: 9, wantCycle: 4, wantOverflow: false, wantOK: true},
		{name: "one back", c0: 3, wantCycle: 3, wantOverflow: true, wantOK: true},
		{name: "two back", c0: 2, wantCycle: 2, wantOverflow: true, wantOK: true},
		{name: "initial", c0: 1, wantCycle: 1, wantOverflow: true, wantOK: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			v, fromOv, ok := bestVersionAtOrBefore(b, 1, tt.c0)
			if ok != tt.wantOK {
				t.Fatalf("ok = %v, want %v", ok, tt.wantOK)
			}
			if v.Cycle != tt.wantCycle || fromOv != tt.wantOverflow {
				t.Errorf("got cycle %v overflow %v, want %v/%v", v.Cycle, fromOv, tt.wantCycle, tt.wantOverflow)
			}
		})
	}
	if _, _, ok := bestVersionAtOrBefore(b, 99, 4); ok {
		t.Error("unknown item served")
	}
}

func TestBestVersionMissesWhenTooOld(t *testing.T) {
	srv := newServer(t, 2, 2) // retain span 2 only
	for i := 0; i < 6; i++ {
		commit(t, srv, 1)
	}
	b, err := Assemble(srv, nil, FlatProgram(2))
	if err == nil {
		// log is nil but server advanced; Assemble(nil log) is for cycle
		// 1 only — rebuild properly below.
		_ = b
	}
	log := commit(t, srv, 1)
	b, err = Assemble(srv, log, FlatProgram(2))
	if err != nil {
		t.Fatal(err)
	}
	// Start cycle far in the past: no retained version is old enough.
	if _, _, ok := bestVersionAtOrBefore(b, 1, 2); ok {
		t.Error("version older than retention window served; want miss")
	}
}

func TestReadCurrent(t *testing.T) {
	srv := newServer(t, 3, 1)
	log := commit(t, srv, 2)
	b, err := Assemble(srv, log, FlatProgram(3))
	if err != nil {
		t.Fatal(err)
	}
	v, err := b.ReadCurrent(2)
	if err != nil {
		t.Fatal(err)
	}
	if v.Cycle != 2 {
		t.Errorf("current version cycle = %v, want 2", v.Cycle)
	}
	if _, err := b.ReadCurrent(9); err == nil {
		t.Error("ReadCurrent(9) succeeded, want error")
	}
}

func TestEntryAt(t *testing.T) {
	srv := newServer(t, 3, 1)
	b, err := Assemble(srv, nil, FlatProgram(3))
	if err != nil {
		t.Fatal(err)
	}
	e, err := b.EntryAt(1)
	if err != nil {
		t.Fatal(err)
	}
	if e.Item != 2 {
		t.Errorf("EntryAt(1).Item = %v, want item#2", e.Item)
	}
	if _, err := b.EntryAt(-1); err == nil {
		t.Error("EntryAt(-1) succeeded")
	}
	if _, err := b.EntryAt(3); err == nil {
		t.Error("EntryAt(3) succeeded")
	}
}

func TestRepeatedProgramSharesOverflowGroup(t *testing.T) {
	srv := newServer(t, 3, 3)
	commit(t, srv, 1)
	log := commit(t, srv, 1)
	// Broadcast-disk-like program repeating item 1.
	prog := Program{1, 2, 1, 3, 1}
	b, err := Assemble(srv, log, prog)
	if err != nil {
		t.Fatal(err)
	}
	first := b.Entries[0].Overflow
	if first < 0 {
		t.Fatal("item 1 has no overflow pointer")
	}
	for _, slot := range []int{2, 4} {
		if b.Entries[slot].Overflow != first {
			t.Errorf("repeated slot %d overflow ptr = %d, want %d", slot, b.Entries[slot].Overflow, first)
		}
	}
	// Overflow group emitted once.
	count := 0
	for _, ov := range b.Overflow {
		if ov.Item == 1 {
			count++
		}
	}
	if count != 2 {
		t.Errorf("overflow holds %d versions of item 1, want 2 (emitted once)", count)
	}
}

// TestEntryIs40Bytes pins the data-segment slot layout: the int32
// overflow pointer shares a word with the item, so a decoded D-item data
// segment is 40 B × D.
func TestEntryIs40Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Entry{}); got != 40 {
		t.Errorf("unsafe.Sizeof(Entry{}) = %d, want 40", got)
	}
}

// TestNewAllocatesNothingPerEntry pins the arithmetic slot positions: for
// a flat data segment New allocates the becast and nothing else, whatever
// D is.
func TestNewAllocatesNothingPerEntry(t *testing.T) {
	for _, d := range []int{1000, 4000} {
		entries := make([]Entry, d)
		for i := range entries {
			entries[i] = Entry{Item: model.ItemID(i + 1), Overflow: -1}
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := New(1, nil, sg.Delta{}, entries, nil, 0, 0); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 {
			t.Errorf("D=%d: New allocates %v objects, want 1 (the becast)", d, allocs)
		}
	}
}

// TestAssembleAllocatesNothingPerItem pins assembly's per-item cost at
// zero: with every item carrying S = 4 versions, a flat D = 4,000 becast
// allocates at most 8 objects more than a D = 1,000 one. The difference is
// the logarithmic growth of the overflow array; a flat program builds no
// positions map, and reading a version chain copies nothing.
func TestAssembleAllocatesNothingPerItem(t *testing.T) {
	allocs := func(d int) float64 {
		srv := newServer(t, d, 4)
		all := make([]model.ItemID, d)
		for i := range all {
			all[i] = model.ItemID(i + 1)
		}
		var log *server.CycleLog
		for c := 0; c < 3; c++ {
			log = commit(t, srv, all...)
		}
		prog := FlatProgram(d)
		return testing.AllocsPerRun(10, func() {
			if _, err := Assemble(srv, log, prog); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1000), allocs(4000)
	t.Logf("Assemble allocs: D=1000 %v, D=4000 %v", small, large)
	if large-small > 8 {
		t.Errorf("Assemble allocates %v objects at D=4000 and %v at D=1000: %v more, want <= 8", large, small, large-small)
	}
}
