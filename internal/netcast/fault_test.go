package netcast

import (
	"net"
	"testing"
	"time"

	"bpush/internal/broadcast"
	"bpush/internal/client"
	"bpush/internal/core"
	"bpush/internal/fault"
	"bpush/internal/model"
	"bpush/internal/server"
	"bpush/internal/sg"
	"bpush/internal/wire"
	"bpush/internal/workload"
)

// encodeCycles assembles and encodes n consecutive becasts from a small
// server, for hand-crafting damaged TCP streams.
func encodeCycles(t *testing.T, n int) [][]byte {
	t.Helper()
	srv, err := server.New(server.Config{DBSize: 8, MaxVersions: 1})
	if err != nil {
		t.Fatal(err)
	}
	prog := broadcast.FlatProgram(8)
	var frames [][]byte
	var log *server.CycleLog
	for i := 0; i < n; i++ {
		b, err := broadcast.Assemble(srv, log, prog)
		if err != nil {
			t.Fatal(err)
		}
		frame, err := wire.Encode(b)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame)
		log, err = srv.CommitAndAdvance([]model.ServerTx{{Ops: []model.Op{
			{Kind: model.OpRead, Item: model.ItemID(i%8 + 1)},
			{Kind: model.OpWrite, Item: model.ItemID(i%8 + 1)},
		}}})
		if err != nil {
			t.Fatal(err)
		}
	}
	return frames
}

// TestTunerResyncsAfterCorruption puts a damaged stream on a real socket:
// leading garbage, a good frame, a frame whose CRC trailer is flipped
// (structure intact, so the decoder consumes exactly that frame before the
// checksum rejects it), and another good frame. The tuner must deliver the
// good frames, count the damage, and never surface garbage.
func TestTunerResyncsAfterCorruption(t *testing.T) {
	bc, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = bc.Close() })
	tuner, err := Dial(bc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tuner.Close()
	waitFor(t, func() bool { return bc.Subscribers() == 1 })

	frames := encodeCycles(t, 3)
	bad := append([]byte(nil), frames[1]...)
	bad[len(bad)-1] ^= 0x01 // flip the CRC trailer: structure intact, checksum fails

	for _, f := range [][]byte{[]byte("noise in the band"), frames[0], bad, frames[2]} {
		if err := bc.Broadcast(NewFrame(f)); err != nil {
			t.Fatal(err)
		}
	}

	a, err := tuner.Next()
	if err != nil {
		t.Fatalf("first good frame: %v", err)
	}
	if a.Cycle != 1 {
		t.Errorf("got cycle %v, want 1", a.Cycle)
	}
	c, err := tuner.Next()
	if err != nil {
		t.Fatalf("frame after corruption: %v", err)
	}
	if c.Cycle != 3 {
		t.Errorf("got cycle %v, want 3 (cycle 2 was damaged)", c.Cycle)
	}
	if n := tuner.CorruptFrames(); n != 2 {
		t.Errorf("CorruptFrames() = %d, want 2 (garbage + flipped frame)", n)
	}
}

// TestTunerDropsFrameNewRejects: a frame whose checksum holds but whose
// contents broadcast.New rejects (here a report out of item order) is a
// loss like a corrupt frame, as the fault layer already treats it: the
// tuner counts it and delivers the next good cycle, and no error reaches
// the subscriber.
func TestTunerDropsFrameNewRejects(t *testing.T) {
	frames := encodeCycles(t, 3)
	entries := make([]broadcast.Entry, 8)
	for i := range entries {
		entries[i] = broadcast.Entry{Item: model.ItemID(i + 1), Overflow: -1}
	}
	b, err := broadcast.New(2, []broadcast.InvalidationEntry{{Item: 1}, {Item: 3}}, sg.Delta{}, entries, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b.Report[0], b.Report[1] = b.Report[1], b.Report[0]
	rejected, err := wire.Encode(b)
	if err != nil {
		t.Fatal(err)
	}

	air, ear := net.Pipe()
	defer ear.Close()
	go func() {
		defer air.Close()
		for _, f := range [][]byte{frames[0], rejected, frames[2]} {
			if _, err := air.Write(f); err != nil {
				return
			}
		}
	}()
	tuner := Tune(ear)
	for _, want := range []model.Cycle{1, 3} {
		got, err := tuner.Next()
		if err != nil {
			t.Fatalf("want cycle %v, got error %v", want, err)
		}
		if got.Cycle != want {
			t.Errorf("got cycle %v, want %v", got.Cycle, want)
		}
	}
	if n := tuner.CorruptFrames(); n != 1 {
		t.Errorf("CorruptFrames() = %d, want 1 (the rejected frame)", n)
	}
}

// TestStationFaultPlanEndToEnd runs the whole chaos path over TCP: a
// station mangling frames channel-side, a tuner resynchronizing past the
// damage, and a client downgrading the resulting gaps to misses — queries
// keep committing with no infrastructure error.
func TestStationFaultPlanEndToEnd(t *testing.T) {
	st, err := NewStation(StationConfig{
		Addr:     "127.0.0.1:0",
		DBSize:   50,
		Versions: 4,
		Workload: workload.ServerConfig{
			DBSize: 50, UpdateRange: 25, Theta: 0.95,
			TxPerCycle: 2, UpdatesPerCycle: 4, ReadsPerUpdate: 2,
		},
		Interval: time.Millisecond,
		Seed:     7,
		Fault:    fault.Plan{Drop: 0.25, Corrupt: 0.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })

	tuner, err := Dial(st.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tuner.Close()

	scheme, err := core.New(core.Options{Kind: core.KindMVBroadcast})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := client.New(scheme, tuner, client.Config{ThinkTime: 1})
	if err != nil {
		t.Fatal(err)
	}
	committed := 0
	for q := 0; q < 5; q++ {
		res, err := cl.RunQuery([]model.ItemID{3, 9, 17})
		if err != nil {
			t.Fatalf("query %d: %v", q, err)
		}
		if res.Committed {
			committed++
		}
	}
	if committed == 0 {
		t.Error("no query committed through the faulty channel")
	}
	if st.FaultStats().Lost() == 0 {
		t.Error("fault plan lost no frames; the chaos path went unexercised")
	}
}
