package broadcast

import (
	"testing"

	"bpush/internal/model"
)

func TestAssembleChunkPartialCoverage(t *testing.T) {
	srv := newServer(t, 10, 1)
	log := commit(t, srv, 2, 7)
	chunk := Program{1, 2, 3, 4, 5}
	b, err := AssembleChunk(srv, log, chunk)
	if err != nil {
		t.Fatal(err)
	}
	if b.Items() != 5 {
		t.Errorf("Items() = %d, want 5", b.Items())
	}
	if b.TotalItems != 10 {
		t.Errorf("TotalItems = %d, want 10", b.TotalItems)
	}
	// On-air vs in-database distinction, the §7 chunking contract.
	tests := []struct {
		item     model.ItemID
		wantPos  int
		wantInDB bool
	}{
		{item: 3, wantPos: 2, wantInDB: true},
		{item: 7, wantPos: -1, wantInDB: true},
		{item: 10, wantPos: -1, wantInDB: true},
		{item: 11, wantPos: -1, wantInDB: false},
		{item: 0, wantPos: -1, wantInDB: false},
	}
	for _, tt := range tests {
		if got := b.Position(tt.item); got != tt.wantPos {
			t.Errorf("Position(%v) = %v, want %v", tt.item, got, tt.wantPos)
		}
		if got := b.InDatabase(tt.item); got != tt.wantInDB {
			t.Errorf("InDatabase(%v) = %v, want %v", tt.item, got, tt.wantInDB)
		}
	}
	// The report still covers the whole database: item 7 was updated
	// even though it is not in this chunk.
	if !b.Invalidates(7, 1) {
		t.Error("report dropped an off-chunk update")
	}
}

func TestAssembleChunkRejectsEmptyProgram(t *testing.T) {
	srv := newServer(t, 5, 1)
	if _, err := AssembleChunk(srv, nil, Program{}); err == nil {
		t.Error("empty chunk accepted")
	}
}

func TestAssembleStillRequiresFullCoverage(t *testing.T) {
	srv := newServer(t, 5, 1)
	if _, err := Assemble(srv, nil, Program{1, 2}); err == nil {
		t.Error("Assemble accepted a partial program")
	}
}

func TestNextPositionWithRepeats(t *testing.T) {
	srv := newServer(t, 6, 1)
	// Disk-like program: item 2 appears at slots 1, 4, 7.
	prog := Program{1, 2, 3, 4, 2, 5, 6, 2}
	b, err := Assemble(srv, nil, prog)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		item model.ItemID
		pos  int
		want int
	}{
		{item: 2, pos: 0, want: 1},
		{item: 2, pos: 1, want: 1},
		{item: 2, pos: 2, want: 4},
		{item: 2, pos: 5, want: 7},
		{item: 2, pos: 8, want: -1},
		{item: 1, pos: 1, want: -1},
		{item: 9, pos: 0, want: -1},
	}
	for _, tt := range tests {
		if got := b.NextPosition(tt.item, tt.pos); got != tt.want {
			t.Errorf("NextPosition(%v, %d) = %d, want %d", tt.item, tt.pos, got, tt.want)
		}
	}
	if got := b.Position(2); got != 1 {
		t.Errorf("Position(2) = %d, want first slot 1", got)
	}
}

func TestChunkedVersionsStillServable(t *testing.T) {
	srv := newServer(t, 6, 3)
	commit(t, srv, 2)
	log := commit(t, srv, 2)
	b, err := AssembleChunk(srv, log, Program{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	// The chunk carries item 2's overflow versions like a full becast.
	v, fromOverflow, ok := bestVersionAtOrBefore(b, 2, 2)
	if !ok || !fromOverflow || v.Cycle != 2 {
		t.Errorf("bestVersionAtOrBefore = %+v overflow=%v ok=%v, want cycle-2 overflow hit", v, fromOverflow, ok)
	}
}
