package netcast

import (
	"encoding/binary"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bpush/internal/model"
)

// The head-of-line suite pins the property the paper's push model
// promises: one slow reader must never stall delivery to everyone else. Stalls are injected
// deterministically through the broadcaster's writeFrame seam, so no
// kernel socket-buffer tuning is involved (the one socket-level case,
// TestQueueOverflowEvicts/stalled-tcp-audience, only asserts counts).

// seqFrame returns the test's 8-byte frame carrying a sequence number.
func seqFrame(i uint64) []byte {
	var p [8]byte
	binary.BigEndian.PutUint64(p[:], i)
	return p[:]
}

// stallMatcher tracks which subscriber connections are stalled, by the
// remote address the broadcaster sees.
type stallMatcher struct {
	mu    sync.Mutex
	addrs map[string]bool
}

func newStallMatcher() *stallMatcher { return &stallMatcher{addrs: map[string]bool{}} }

func (m *stallMatcher) stall(localAddrOfClient net.Addr) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.addrs[localAddrOfClient.String()] = true
}

func (m *stallMatcher) matches(c net.Conn) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.addrs[c.RemoteAddr().String()]
}

// installStall swaps the broadcaster's write seam: writes to matched
// conns block until release is closed (honoring the write deadline when
// honorTimeout is set); all other writes take the production path.
func installStall(b *Broadcaster, m *stallMatcher, release chan struct{}, honorTimeout bool) {
	b.writeFrame = func(c net.Conn, timeout time.Duration, f Frame) (int, error) {
		if m.matches(c) {
			if honorTimeout {
				select {
				case <-release:
				case <-time.After(timeout):
					return 0, memTimeoutError{}
				}
			} else {
				<-release
			}
			return 0, net.ErrClosed
		}
		return deadlineWrite(c, timeout, f)
	}
}

// readSeqs reads n sequence frames from a raw subscriber conn within the
// deadline, returning what arrived in time.
func readSeqs(c net.Conn, n int, deadline time.Duration) []uint64 {
	_ = c.SetReadDeadline(time.Now().Add(deadline))
	var out []uint64
	buf := make([]byte, 8)
	for len(out) < n {
		if _, err := io.ReadFull(c, buf); err != nil {
			return out
		}
		out = append(out, binary.BigEndian.Uint64(buf))
	}
	return out
}

// TestHeadOfLineRegression is the bug-class pin: with the sharded
// broadcaster, a subscriber whose writes wedge completely does not delay
// a single cycle for subscribers on other shards.
func TestHeadOfLineRegression(t *testing.T) {
	b, err := ListenConfig("127.0.0.1:0", Config{Shards: 4, QueueLen: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()
	release := make(chan struct{})
	defer close(release) // unblock the wedged writer before Close waits on it
	m := newStallMatcher()
	installStall(b, m, release, false)

	stalled, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = stalled.Close() }()
	m.stall(stalled.LocalAddr())
	waitFor(t, func() bool { return b.Subscribers() == 1 })

	healthy := make([]net.Conn, 3)
	for i := range healthy {
		c, err := net.Dial("tcp", b.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = c.Close() }()
		healthy[i] = c
	}
	waitFor(t, func() bool { return b.Subscribers() == 4 })

	const cycles = 6
	for i := uint64(1); i <= cycles; i++ {
		if err := b.Broadcast(NewFrame(seqFrame(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Every healthy subscriber hears every cycle, in order, while the
	// stalled subscriber's shard writer is still wedged.
	for i, c := range healthy {
		got := readSeqs(c, cycles, 2*time.Second)
		if len(got) != cycles {
			t.Fatalf("healthy subscriber %d received %d/%d cycles behind a wedged peer", i, len(got), cycles)
		}
		for j, seq := range got {
			if seq != uint64(j+1) {
				t.Fatalf("healthy subscriber %d: frame %d has seq %d", i, j, seq)
			}
		}
	}
	if got := readSeqs(stalled, 1, 100*time.Millisecond); len(got) != 0 {
		t.Fatalf("stalled subscriber unexpectedly received %d frames", len(got))
	}
}

// TestSameShardStallBoundedByDeadline: subscribers sharing a shard with
// a stalled peer are delayed at most one write deadline, then the
// stalled peer is dropped and the shard-mates' bounded queues drain
// completely — damage is a delay, never a loss.
func TestSameShardStallBoundedByDeadline(t *testing.T) {
	b, err := ListenConfig("127.0.0.1:0", Config{Shards: 1, QueueLen: 16, WriteTimeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()
	release := make(chan struct{})
	defer close(release)
	m := newStallMatcher()
	installStall(b, m, release, true) // stall honors the write deadline

	stalled, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = stalled.Close() }()
	m.stall(stalled.LocalAddr())
	waitFor(t, func() bool { return b.Subscribers() == 1 })

	healthy := make([]net.Conn, 2)
	for i := range healthy {
		c, err := net.Dial("tcp", b.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = c.Close() }()
		healthy[i] = c
	}
	waitFor(t, func() bool { return b.Subscribers() == 3 })

	const cycles = 6
	for i := uint64(1); i <= cycles; i++ {
		if err := b.Broadcast(NewFrame(seqFrame(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range healthy {
		got := readSeqs(c, cycles, 3*time.Second)
		if len(got) != cycles {
			t.Fatalf("same-shard subscriber %d received %d/%d cycles after the stalled peer timed out", i, len(got), cycles)
		}
	}
	waitFor(t, func() bool { return b.Traffic().Drops >= 1 })
	if b.Subscribers() != 2 {
		t.Errorf("stalled subscriber still registered: %d subscribers", b.Subscribers())
	}
}

// TestQueueOverflowEvicts pins the bounded-queue contract: a subscriber
// that cannot drain is evicted the moment a broadcast finds its queue
// full, its connection is closed, and the eviction is counted — the
// broadcast path itself never blocks. The first case wedges one writer
// deterministically; the second stalls a whole station audience over
// real sockets.
func TestQueueOverflowEvicts(t *testing.T) {
	t.Run("wedged-writer", func(t *testing.T) {
		const queueLen = 2
		b, err := ListenConfig("127.0.0.1:0", Config{Shards: 1, QueueLen: queueLen})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = b.Close() }()
		release := make(chan struct{})
		defer close(release)
		m := newStallMatcher()
		var entered sync.Once
		wedged := make(chan struct{}) // closed when the writer enters the stall
		b.writeFrame = func(c net.Conn, timeout time.Duration, f Frame) (int, error) {
			if m.matches(c) {
				entered.Do(func() { close(wedged) })
				<-release
				return 0, net.ErrClosed
			}
			return deadlineWrite(c, timeout, f)
		}

		stalled, err := net.Dial("tcp", b.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = stalled.Close() }()
		m.stall(stalled.LocalAddr())
		waitFor(t, func() bool { return b.Subscribers() == 1 })

		// Frame 1 wedges in the writer; the queue absorbs queueLen more;
		// the next broadcast overflows and evicts.
		for i := uint64(1); i <= queueLen+2; i++ {
			if err := b.Broadcast(NewFrame(seqFrame(i))); err != nil {
				t.Fatal(err)
			}
			if i == 1 {
				// Wait until the shard writer has dequeued frame 1 and is
				// wedged mid-write, so the overflow count is deterministic.
				<-wedged
			}
		}
		waitFor(t, func() bool { return b.Traffic().Evictions == 1 })
		if n := b.Subscribers(); n != 0 {
			t.Errorf("evicted subscriber still registered: %d", n)
		}
		shards := b.Shards()
		if shards[0].Evictions != 1 {
			t.Errorf("shard 0 evictions = %d, want 1", shards[0].Evictions)
		}
		// The evicted subscriber's connection is closed server-side.
		_ = stalled.SetReadDeadline(time.Now().Add(2 * time.Second))
		buf := make([]byte, 1)
		if _, err := stalled.Read(buf); err == nil {
			t.Error("evicted subscriber's connection still open")
		}
	})

	// An audience that heard every cycle and then stops reading is swept
	// off entirely by queue-overflow evictions, never by write-timeout
	// drops: kernel buffers fill, each queue fills behind them, and the
	// next broadcast evicts.
	t.Run("stalled-tcp-audience", func(t *testing.T) {
		const subs, cycles = 8, 3
		st := equivStation(t, Config{QueueLen: 4})
		tuners := make([]*Tuner, subs)
		for i := range tuners {
			tn, err := Dial(st.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer tn.Close()
			tuners[i] = tn
		}
		waitFor(t, func() bool { return st.Subscribers() == subs })
		for c := 0; c < cycles; c++ {
			if err := st.Tick(); err != nil {
				t.Fatal(err)
			}
		}
		for i, tn := range tuners {
			for want := model.Cycle(1); want <= cycles; want++ {
				b, err := tn.Next()
				if err != nil {
					t.Fatalf("tuner %d: %v", i, err)
				}
				if b.Cycle != want {
					t.Fatalf("tuner %d heard %v, want %v", i, b.Cycle, want)
				}
			}
		}
		bc := st.Cast()
		waitFor(t, func() bool { return bc.Traffic().FramesSent == subs*cycles })

		// Nobody reads from here on.
		deadline := time.Now().Add(30 * time.Second)
		for st.Subscribers() > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("eviction sweep stalled: %d subscribers left", st.Subscribers())
			}
			if err := st.Tick(); err != nil {
				t.Fatal(err)
			}
		}
		if tr := bc.Traffic(); tr.Evictions != subs || tr.Drops != 0 {
			t.Errorf("evictions = %d, drops = %d; want %d and 0", tr.Evictions, tr.Drops, subs)
		}
	})
}

// TestSubscribeLocal attaches an in-process subscriber (no socket, no
// file descriptor) and runs the full tuner decode path over it.
func TestSubscribeLocal(t *testing.T) {
	st := testStation(t, 0)
	conn, err := st.Cast().SubscribeLocal()
	if err != nil {
		t.Fatal(err)
	}
	tuner := Tune(conn)
	defer func() { _ = tuner.Close() }()
	for i := 0; i < 3; i++ {
		if err := st.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	for want := 1; want <= 3; want++ {
		bc, err := tuner.Next()
		if err != nil {
			t.Fatal(err)
		}
		if int(bc.Cycle) != want {
			t.Fatalf("in-process tuner heard cycle %d, want %d", bc.Cycle, want)
		}
	}
}

// TestShardAssignmentSpreads: subscribers land on distinct shards
// round-robin, and per-shard stats see them.
func TestShardAssignmentSpreads(t *testing.T) {
	b, err := ListenConfig("127.0.0.1:0", Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()
	for i := 0; i < 8; i++ {
		if _, err := b.SubscribeLocal(); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range b.Shards() {
		if s.Subscribers != 2 {
			t.Errorf("shard %d has %d subscribers, want 2", i, s.Subscribers)
		}
	}
}

// TestShardedBroadcastRace exercises concurrent Broadcast, subscribe,
// client-side close, and broadcaster Close under the race detector.
func TestShardedBroadcastRace(t *testing.T) {
	b, err := ListenConfig("127.0.0.1:0", Config{Shards: 4, QueueLen: 8, WriteTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var stopped atomic.Bool

	wg.Add(1)
	go func() { // broadcaster
		defer wg.Done()
		for i := uint64(1); i <= 200; i++ {
			if err := b.Broadcast(NewFrame(seqFrame(i))); err != nil {
				return
			}
		}
		stopped.Store(true)
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) { // churning subscribers
			defer wg.Done()
			for k := 0; k < 20 && !stopped.Load(); k++ {
				conn, err := b.SubscribeLocal()
				if err != nil {
					return
				}
				// Read a little, then hang up mid-stream.
				buf := make([]byte, 64)
				_ = conn.SetReadDeadline(time.Now().Add(10 * time.Millisecond))
				_, _ = conn.Read(buf)
				_ = conn.Close()
			}
		}(g)
	}
	wg.Wait()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	// Idempotent close, and stats still readable afterwards.
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	_ = b.Traffic()
	_ = b.Shards()
}

// TestGreetExactlyOnce: a subscriber joining between broadcasts receives
// the latest frame exactly once, then the stream continues with no
// duplicates — registration and broadcast are serialized.
func TestGreetExactlyOnce(t *testing.T) {
	b, err := ListenConfig("127.0.0.1:0", Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()
	if err := b.Broadcast(NewFrame(seqFrame(7))); err != nil {
		t.Fatal(err)
	}
	conn, err := b.SubscribeLocal()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if err := b.Broadcast(NewFrame(seqFrame(8))); err != nil {
		t.Fatal(err)
	}
	got := readSeqs(conn, 2, 2*time.Second)
	if len(got) != 2 || got[0] != 7 || got[1] != 8 {
		t.Fatalf("late joiner stream = %v, want [7 8]", got)
	}
	if extra := readSeqs(conn, 1, 100*time.Millisecond); len(extra) != 0 {
		t.Fatalf("late joiner received duplicate frames: %v", extra)
	}
}
