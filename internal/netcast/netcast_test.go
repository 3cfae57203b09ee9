package netcast

import (
	"errors"
	"io"
	"runtime"
	"slices"
	"testing"
	"time"

	"bpush/internal/broadcast"
	"bpush/internal/client"
	"bpush/internal/core"
	"bpush/internal/model"
	"bpush/internal/server"
	"bpush/internal/wire"
	"bpush/internal/workload"
)

func testStation(t *testing.T, interval time.Duration) *Station {
	t.Helper()
	st, err := NewStation(StationConfig{
		Addr:     "127.0.0.1:0",
		DBSize:   50,
		Versions: 4,
		Workload: workload.ServerConfig{
			DBSize: 50, UpdateRange: 25, Theta: 0.95,
			TxPerCycle: 2, UpdatesPerCycle: 4, ReadsPerUpdate: 2,
		},
		Interval: interval,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	return st
}

func TestStationValidation(t *testing.T) {
	if _, err := NewStation(StationConfig{DBSize: 0, Versions: 1}); err == nil {
		t.Error("zero DBSize accepted")
	}
	if _, err := NewStation(StationConfig{
		Addr: "127.0.0.1:0", DBSize: 10, Versions: 1,
		Workload: workload.ServerConfig{DBSize: 20, UpdateRange: 5, TxPerCycle: 1},
	}); err == nil {
		t.Error("mismatched workload DBSize accepted")
	}
}

func TestTunerReceivesCycles(t *testing.T) {
	st := testStation(t, 0)
	tuner, err := Dial(st.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tuner.Close()

	waitSubscribed(t, st)
	for i := 0; i < 3; i++ {
		if err := st.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	var last model.Cycle
	for i := 0; i < 3; i++ {
		b, err := tuner.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b.Cycle <= last {
			t.Errorf("cycles not increasing: %v after %v", b.Cycle, last)
		}
		last = b.Cycle
		if len(b.Entries) != 50 {
			t.Errorf("becast has %d entries, want 50", len(b.Entries))
		}
	}
}

func TestLateJoinerGetsLastFrame(t *testing.T) {
	st := testStation(t, 0)
	if err := st.Tick(); err != nil {
		t.Fatal(err)
	}
	if err := st.Tick(); err != nil {
		t.Fatal(err)
	}
	tuner, err := Dial(st.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tuner.Close()
	b, err := tuner.Next()
	if err != nil {
		t.Fatal(err)
	}
	if b.Cycle != 2 {
		t.Errorf("late joiner got %v, want the latest becast (cycle 2)", b.Cycle)
	}
}

func TestMultipleSubscribersGetSameFrames(t *testing.T) {
	st := testStation(t, 0)
	const n = 4
	tuners := make([]*Tuner, n)
	for i := range tuners {
		tn, err := Dial(st.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer tn.Close()
		tuners[i] = tn
	}
	waitFor(t, func() bool { return st.Subscribers() == n })
	if err := st.Tick(); err != nil {
		t.Fatal(err)
	}
	for i, tn := range tuners {
		b, err := tn.Next()
		if err != nil {
			t.Fatalf("tuner %d: %v", i, err)
		}
		if b.Cycle != 1 {
			t.Errorf("tuner %d got cycle %v, want 1", i, b.Cycle)
		}
	}
}

func TestTunerEOFAfterClose(t *testing.T) {
	st := testStation(t, 0)
	tuner, err := Dial(st.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tuner.Close()
	waitSubscribed(t, st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tuner.Next(); !errors.Is(err, io.EOF) && err == nil {
		t.Errorf("Next after close = %v, want EOF or connection error", err)
	}
}

func TestDroppedSubscriberRemoved(t *testing.T) {
	st := testStation(t, 0)
	tuner, err := Dial(st.Addr())
	if err != nil {
		t.Fatal(err)
	}
	waitSubscribed(t, st)
	_ = tuner.Close()
	// Broadcasting to the dead conn drops it.
	for i := 0; i < 5 && st.Subscribers() > 0; i++ {
		if err := st.Tick(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st.Subscribers() != 0 {
		t.Errorf("dead subscriber still registered (%d)", st.Subscribers())
	}
}

// TestEndToEndQueryOverTCP runs a full read-only transaction through a
// real socket: station -> wire -> tuner -> client runtime -> SGT scheme.
func TestEndToEndQueryOverTCP(t *testing.T) {
	st := testStation(t, 5*time.Millisecond)
	tuner, err := Dial(st.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tuner.Close()

	scheme, err := core.New(core.Options{Kind: core.KindSGT, CacheSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := client.New(scheme, tuner, client.Config{ThinkTime: 1})
	if err != nil {
		t.Fatal(err)
	}
	committed := 0
	for q := 0; q < 5; q++ {
		res, err := cl.RunQuery([]model.ItemID{3, 40, 7})
		if err != nil {
			t.Fatal(err)
		}
		if res.Committed {
			committed++
			if len(res.Info.Reads) != 3 {
				t.Errorf("query %d: %d observations, want 3", q, len(res.Info.Reads))
			}
		}
	}
	if committed == 0 {
		t.Error("no query committed over TCP")
	}
}

// TestStationWithPipelineWorkers drives the multi-worker commit pipeline
// through the station path: cycles keep flowing and clients keep
// committing.
func TestStationWithPipelineWorkers(t *testing.T) {
	st, err := NewStation(StationConfig{
		Addr:     "127.0.0.1:0",
		DBSize:   50,
		Versions: 4,
		Workload: workload.ServerConfig{
			DBSize: 50, UpdateRange: 25, Theta: 0.95,
			TxPerCycle: 4, UpdatesPerCycle: 8, ReadsPerUpdate: 2,
		},
		Interval: 5 * time.Millisecond,
		Seed:     3,
		Workers:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st.Close() }()

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
		res, err := cl.RunQuery([]model.ItemID{3, 40, 7})
		if err != nil {
			t.Fatal(err)
		}
		if res.Committed {
			committed++
		}
	}
	if committed == 0 {
		t.Error("nothing committed against a multi-worker pipeline stream")
	}
}

// TestZeroClientIngress makes the scalability architecture observable:
// clients running full transactional workloads send the server nothing.
func TestZeroClientIngress(t *testing.T) {
	st := testStation(t, 5*time.Millisecond)
	tuner, err := Dial(st.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tuner.Close()
	scheme, err := core.New(core.Options{Kind: core.KindInvOnly, CacheSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := client.New(scheme, tuner, client.Config{ThinkTime: 1})
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 4; q++ {
		if _, err := cl.RunQuery([]model.ItemID{2, 30}); err != nil {
			t.Fatal(err)
		}
	}
	// A shard goroutine counts a frame only after its Write returns, which
	// may be after the tuner has read it; Close waits for every shard
	// goroutine, so the counters are final once it returns.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	tr := st.bc.Traffic()
	if tr.BytesReceived != 0 {
		t.Errorf("server received %d bytes from clients; push delivery must be one-way", tr.BytesReceived)
	}
	if tr.FramesSent == 0 || tr.BytesSent == 0 {
		t.Errorf("no outbound traffic recorded: %+v", tr)
	}
}

func TestBroadcastAfterCloseFails(t *testing.T) {
	st := testStation(t, 0)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{DBSize: 4, MaxVersions: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := broadcast.Assemble(srv, nil, broadcast.FlatProgram(4))
	if err != nil {
		t.Fatal(err)
	}
	frame, err := wire.Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.bc.Broadcast(NewFrame(frame)); err == nil {
		t.Error("Broadcast after Close succeeded")
	}
}

// TestNoGoroutineLeakAfterClose: the broadcaster owns an accept loop and
// one drain goroutine per subscriber; Close must reap all of them.
func TestNoGoroutineLeakAfterClose(t *testing.T) {
	before := runtime.NumGoroutine()
	st := testStation(t, 0)
	tuners := make([]*Tuner, 3)
	for i := range tuners {
		tn, err := Dial(st.Addr())
		if err != nil {
			t.Fatal(err)
		}
		tuners[i] = tn
	}
	waitFor(t, func() bool { return st.Subscribers() == 3 })
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tn := range tuners {
		_ = tn.Close()
	}
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before+1 })
}

func TestCloseIdempotent(t *testing.T) {
	st := testStation(t, 0)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.bc.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func waitSubscribed(t *testing.T, st *Station) {
	t.Helper()
	waitFor(t, func() bool { return st.Subscribers() > 0 })
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached within deadline")
}

// TestSubscribersUnindexedSourceIndexed pins what a network subscriber
// hears in a real deployment: the station's in-process source primes every
// produced becast, but nothing derived crosses the wire — a subscriber's
// decoded becast is the same cycle, with the same report, read in place.
func TestSubscribersUnindexedSourceIndexed(t *testing.T) {
	st := testStation(t, 0)
	tuner, err := Dial(st.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tuner.Close()

	waitSubscribed(t, st)
	for i := 0; i < 2; i++ {
		if err := st.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	feed := st.Source().NewFeed()
	for i := 0; i < 2; i++ {
		produced, err := feed.Next()
		if err != nil {
			t.Fatal(err)
		}
		heard, err := tuner.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(heard.Report, produced.Report) {
			t.Errorf("cycle %v: heard report %v, produced %v", heard.Cycle, heard.Report, produced.Report)
		}
		if heard.Cycle != produced.Cycle {
			t.Errorf("stream mismatch: heard %v, produced %v", heard.Cycle, produced.Cycle)
		}
	}
}
