package netcast

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"bpush/internal/fault"
	"bpush/internal/wire"
	"bpush/internal/workload"
)

// The equivalence suite pins the sharded broadcaster's core contract:
// sharding changes who writes, never what is written. Every subscriber,
// at every shard count, hears exactly the frames the station's cycle
// source produced, back to back — the frame is encoded once and shared,
// so there is no per-path re-encoding that could diverge.

// equivStation builds a manual-tick station with the given fan-out
// config and a fixed seed shared by every configuration under test.
func equivStation(t *testing.T, cast Config) *Station {
	t.Helper()
	st, err := NewStation(StationConfig{
		Addr:     "127.0.0.1:0",
		DBSize:   50,
		Versions: 4,
		Workload: workload.ServerConfig{
			DBSize: 50, UpdateRange: 25, Theta: 0.95,
			TxPerCycle: 2, UpdatesPerCycle: 4, ReadsPerUpdate: 2,
		},
		Seed: 42,
		Cast: cast,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	return st
}

// captureStream reads exactly cycles becasts off a raw subscriber conn
// and returns the verbatim wire bytes. wire.Decode never reads past the
// end of a frame, so the tee capture is an exact frame-boundary cut.
func captureStream(conn net.Conn, cycles int) ([]byte, error) {
	var buf bytes.Buffer
	tee := io.TeeReader(conn, &buf)
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i := 0; i < cycles; i++ {
		if _, err := wire.Decode(tee); err != nil {
			return nil, fmt.Errorf("cycle %d: %w", i+1, err)
		}
	}
	return buf.Bytes(), nil
}

// runEquivConfig attaches subs in-process subscribers, ticks the station
// cycles times, and returns the station and each subscriber's captured
// stream.
func runEquivConfig(t *testing.T, cast Config, subs, cycles int) (*Station, [][]byte) {
	t.Helper()
	st := equivStation(t, cast)
	conns := make([]net.Conn, subs)
	for i := range conns {
		c, err := st.Cast().SubscribeLocal()
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}
	streams := make([][]byte, subs)
	errs := make([]error, subs)
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c net.Conn) {
			defer wg.Done()
			streams[i], errs[i] = captureStream(c, cycles)
		}(i, c)
	}
	for i := 0; i < cycles; i++ {
		if err := st.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("subscriber %d: %v", i, err)
		}
	}
	return st, streams
}

// TestShardedStreamEquivalence is the differential matrix: shard counts
// {1, 2, 8} crossed with subscriber counts {1, 16, 256}, every stream
// compared byte-for-byte against the concatenated frames of the ticked
// cycles, straight from the station's cycle source.
func TestShardedStreamEquivalence(t *testing.T) {
	const cycles = 5
	for _, shards := range []int{1, 2, 8} {
		for _, subs := range []int{1, 16, 256} {
			t.Run(fmt.Sprintf("shards=%d/subs=%d", shards, subs), func(t *testing.T) {
				st, streams := runEquivConfig(t, Config{Shards: shards}, subs, cycles)
				// A fresh station's first tick broadcasts cycle 0.
				var want []byte
				for i := 0; i < cycles; i++ {
					_, frame, err := st.Source().GetFrame(i)
					if err != nil {
						t.Fatal(err)
					}
					want = append(want, frame...)
				}
				if len(want) == 0 {
					t.Fatal("source produced empty frames")
				}
				for i, s := range streams {
					if !bytes.Equal(s, want) {
						t.Fatalf("subscriber %d of %d (shards=%d): stream diverges from the source's frames (%d vs %d bytes)",
							i, subs, shards, len(s), len(want))
					}
				}
			})
		}
	}
}

// tickModeConfig is the station every tick mode below runs: one seed,
// manual pacing, and queues deep enough that no subscriber is evicted
// while the test ticks faster than the shards drain.
func tickModeConfig(cycles int) StationConfig {
	return StationConfig{
		Addr:     "127.0.0.1:0",
		DBSize:   50,
		Versions: 4,
		Workload: workload.ServerConfig{
			DBSize: 50, UpdateRange: 25, Theta: 0.95,
			TxPerCycle: 2, UpdatesPerCycle: 4, ReadsPerUpdate: 2,
		},
		Seed: 42,
		Cast: Config{QueueLen: 2 * cycles},
	}
}

// captureRaw ticks a station cycles times and returns the verbatim bytes
// one in-process subscriber heard. The length to wait for is the
// broadcaster's own byte counter once every queue has drained, so a
// mangled stream — which no decoder can cut into frames — is captured
// whole.
func captureRaw(t *testing.T, cfg StationConfig, cycles int) []byte {
	t.Helper()
	st, err := NewStation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	conn, err := st.Cast().SubscribeLocal()
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu  sync.Mutex
		buf bytes.Buffer
	)
	go func() {
		p := make([]byte, 4096)
		for {
			n, err := conn.Read(p)
			mu.Lock()
			buf.Write(p[:n])
			mu.Unlock()
			if err != nil {
				return
			}
		}
	}()
	for i := 0; i < cycles; i++ {
		if err := st.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	waitQueuesDrained(t, st.Cast())
	tr := st.Cast().Traffic()
	if tr.Evictions != 0 || tr.Drops != 0 {
		t.Fatalf("subscriber lost: %+v", tr)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := int64(buf.Len())
		mu.Unlock()
		if n >= tr.BytesSent {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("read %d of %d sent bytes", n, tr.BytesSent)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	return append([]byte(nil), buf.Bytes()...)
}

// TestTickModeEquivalence pins the single tick path: sampling and the
// durable log change what is measured and where the frame is encoded,
// never what goes on air. Every mode's stream must equal the plain
// station's byte for byte, and with a fault plan the mangled stream must
// not depend on sampling either.
func TestTickModeEquivalence(t *testing.T) {
	const cycles = 48
	modes := []struct {
		name string
		mod  func(*StationConfig)
	}{
		{"plain", func(*StationConfig) {}},
		{"sampled", func(c *StationConfig) { c.Sample = true }},
		{"durable", func(c *StationConfig) { c.LogDir, c.MemCycles = t.TempDir(), 8 }},
		{"durable+sampled", func(c *StationConfig) { c.LogDir, c.MemCycles, c.Sample = t.TempDir(), 8, true }},
	}
	var want []byte
	for _, m := range modes {
		cfg := tickModeConfig(cycles)
		m.mod(&cfg)
		got := captureRaw(t, cfg, cycles)
		if want == nil {
			if len(got) == 0 {
				t.Fatal("plain station put nothing on air")
			}
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: stream diverges from plain (%d vs %d bytes)", m.name, len(got), len(want))
		}
	}
	plan := fault.Plan{Drop: 0.1, Corrupt: 0.2, Truncate: 0.1, Duplicate: 0.1, Reorder: 0.1}
	var mangled []byte
	for _, sample := range []bool{false, true} {
		cfg := tickModeConfig(cycles)
		cfg.Fault, cfg.Sample = plan, sample
		got := captureRaw(t, cfg, cycles)
		if mangled == nil {
			if bytes.Equal(got, want) {
				t.Fatal("fault plan left the stream unchanged")
			}
			mangled = got
			continue
		}
		if !bytes.Equal(got, mangled) {
			t.Fatalf("sampled fault stream diverges (%d vs %d bytes)", len(got), len(mangled))
		}
	}
}

// TestOnAirFrameIsLoggedFrame pins encode-once on a durable station: the
// frame each tick puts on air shares its backing array with the frame the
// source appended to the log, so no second encode happened.
func TestOnAirFrameIsLoggedFrame(t *testing.T) {
	cfg := tickModeConfig(20)
	cfg.LogDir, cfg.MemCycles = t.TempDir(), 8
	st, err := NewStation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	for i := 0; i < 20; i++ {
		if err := st.Tick(); err != nil {
			t.Fatal(err)
		}
		_, logged, err := st.Source().GetFrame(i)
		if err != nil {
			t.Fatal(err)
		}
		st.bc.mu.Lock()
		last := st.bc.last
		st.bc.mu.Unlock()
		if len(last) == 0 || &last[0] != &logged[0] {
			t.Fatalf("cycle %d: the on-air frame is not the logged frame", i)
		}
	}
}
