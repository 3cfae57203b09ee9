package durlog_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bpush/internal/broadcast"
	"bpush/internal/cyclesource"
	"bpush/internal/durlog"
	"bpush/internal/obs"
	"bpush/internal/server"
	"bpush/internal/wire"
	"bpush/internal/workload"
)

// testBcasts produces n realistic becasts through an in-memory cycle
// source; the durable log stores exactly these frames.
func testBcasts(t testing.TB, seed int64, n int) []*broadcast.Bcast {
	t.Helper()
	src, err := cyclesource.New(cyclesource.Config{
		DBSize:   64,
		Versions: 2,
		Workload: workload.ServerConfig{
			DBSize:          64,
			UpdateRange:     32,
			Offset:          4,
			Theta:           0.8,
			TxPerCycle:      4,
			UpdatesPerCycle: 8,
			ReadsPerUpdate:  2,
		},
		Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*broadcast.Bcast, n)
	for i := range out {
		if out[i], err = src.Get(i); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func frameBytes(t testing.TB, b *broadcast.Bcast) []byte {
	t.Helper()
	p, err := wire.Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAppendReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := durlog.Open(dir, durlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	becasts := testBcasts(t, 1, 8)
	for _, b := range becasts {
		if err := l.AppendCycle(b); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Cycles(); got != len(becasts) {
		t.Fatalf("Cycles() = %d, want %d", got, len(becasts))
	}
	for i, want := range becasts {
		got, err := l.ReadCycle(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(frameBytes(t, got), frameBytes(t, want)) {
			t.Fatalf("cycle %d round-trips to different frame bytes", i)
		}
	}
	if _, err := l.ReadCycle(len(becasts)); err == nil {
		t.Error("read past the end succeeded")
	}
	if _, err := l.ReadCycle(-1); err == nil {
		t.Error("negative read succeeded")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.ReadCycle(0); err == nil {
		t.Error("read after Close succeeded")
	}
}

func TestSegmentRollAndReopen(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	// Tiny segments force a roll every couple of records.
	l, err := durlog.Open(dir, durlog.Options{SegmentBytes: 4096, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	becasts := testBcasts(t, 2, 16)
	for _, b := range becasts {
		if err := l.AppendCycle(b); err != nil {
			t.Fatal(err)
		}
	}
	if l.Segments() < 2 {
		t.Fatalf("expected multiple segments, got %d", l.Segments())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := durlog.Open(dir, durlog.Options{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = reopened.Close() }()
	if got := reopened.Cycles(); got != len(becasts) {
		t.Fatalf("reopened Cycles() = %d, want %d", got, len(becasts))
	}
	if reopened.RecoveredBytes() != 0 {
		t.Fatalf("clean reopen recovered %d bytes", reopened.RecoveredBytes())
	}
	for i, want := range becasts {
		got, err := reopened.ReadCycle(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(frameBytes(t, got), frameBytes(t, want)) {
			t.Fatalf("cycle %d differs after reopen", i)
		}
	}
	// Re-append continues the sequence across the restart.
	more := testBcasts(t, 2, 20)
	for i := 16; i < 20; i++ {
		if err := reopened.AppendCycle(more[i]); err != nil {
			t.Fatal(err)
		}
	}
	if got := reopened.Cycles(); got != 20 {
		t.Fatalf("Cycles() after re-append = %d, want 20", got)
	}
	if reg.Counter("durlog.append.records").Value() != 16 {
		t.Errorf("append counter = %d, want 16", reg.Counter("durlog.append.records").Value())
	}
}

func TestSnapshotLatestWins(t *testing.T) {
	dir := t.TempDir()
	l, err := durlog.Open(dir, durlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()

	if s, err := l.LatestSnapshot(); err != nil || s != nil {
		t.Fatalf("empty log LatestSnapshot = %v, %v; want nil, nil", s, err)
	}

	srv, err := server.New(server.Config{DBSize: 16, MaxVersions: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range testBcasts(t, 3, 6) {
		if err := l.AppendCycle(b); err != nil {
			t.Fatal(err)
		}
		if i == 2 || i == 4 {
			snap := &durlog.Snapshot{Seq: uint64(i + 1), State: srv.ExportState()}
			if err := l.AppendSnapshot(snap); err != nil {
				t.Fatal(err)
			}
		}
	}
	got, err := l.LatestSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Seq != 5 {
		t.Fatalf("LatestSnapshot seq = %+v, want seq 5", got)
	}
	if !reflect.DeepEqual(got.State, srv.ExportState()) {
		t.Error("snapshot state does not round-trip")
	}
	// A snapshot ahead of the logged cycles is rejected.
	bad := &durlog.Snapshot{Seq: 99, State: srv.ExportState()}
	if err := l.AppendSnapshot(bad); err == nil {
		t.Error("snapshot ahead of the log accepted")
	}
}

func TestSnapshotStateRoundTripsThroughReopen(t *testing.T) {
	dir := t.TempDir()
	l, err := durlog.Open(dir, durlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{DBSize: 32, MaxVersions: 3})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewServerGen(workload.ServerConfig{
		DBSize: 32, UpdateRange: 16, Offset: 2, Theta: 0.9,
		TxPerCycle: 3, UpdatesPerCycle: 6, ReadsPerUpdate: 2,
	}, testRand(11))
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 5; c++ {
		if _, err := srv.CommitAndAdvance(gen.Cycle()); err != nil {
			t.Fatal(err)
		}
	}
	want := srv.ExportState()
	if err := l.AppendSnapshot(&durlog.Snapshot{Seq: 0, State: want}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := durlog.Open(dir, durlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = reopened.Close() }()
	got, err := reopened.LatestSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || !reflect.DeepEqual(got.State, want) {
		t.Error("exported state does not survive a disk round trip")
	}
}

func TestMissingSegmentIsCleanError(t *testing.T) {
	dir := t.TempDir()
	l, err := durlog.Open(dir, durlog.Options{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range testBcasts(t, 4, 12) {
		if err := l.AppendCycle(b); err != nil {
			t.Fatal(err)
		}
	}
	if l.Segments() < 3 {
		t.Fatalf("need >= 3 segments, got %d", l.Segments())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "seg-00000001.bpl")); err != nil {
		t.Fatal(err)
	}
	if _, err := durlog.Open(dir, durlog.Options{SegmentBytes: 4096}); err == nil {
		t.Fatal("open succeeded with a missing middle segment")
	}
}

// TestReadCycleAllocations pins the cold-read path: reading a logged
// D=1000 cycle allocates the record buffer plus what an in-place decode
// of the frame does, at most 24 objects.
func TestReadCycleAllocations(t *testing.T) {
	srv, err := server.New(server.Config{DBSize: 1000, MaxVersions: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := broadcast.Assemble(srv, nil, broadcast.FlatProgram(1000))
	if err != nil {
		t.Fatal(err)
	}
	l, err := durlog.Open(t.TempDir(), durlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	if err := l.AppendCycle(b); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(10, func() {
		if _, err := l.ReadCycle(0); err != nil {
			t.Fatal(err)
		}
	})
	if n > 24+1 {
		t.Errorf("ReadCycle allocates %v objects, want <= 25", n)
	}
}
