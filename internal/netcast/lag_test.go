package netcast

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"bpush/internal/obs"
	"bpush/internal/workload"
)

func sampledStation(t *testing.T, mod func(*StationConfig)) *Station {
	t.Helper()
	cfg := StationConfig{
		Addr:     "127.0.0.1:0",
		DBSize:   50,
		Versions: 2,
		Workload: workload.ServerConfig{
			DBSize: 50, UpdateRange: 25, Theta: 0.95,
			TxPerCycle: 2, UpdatesPerCycle: 4, ReadsPerUpdate: 2,
		},
		Seed:         11,
		HTTPAddr:     "127.0.0.1:0",
		Sample:       true,
		SampleStride: 1,
	}
	if mod != nil {
		mod(&cfg)
	}
	st, err := NewStation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	return st
}

func waitQueuesDrained(t *testing.T, bc *Broadcaster) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for bc.QueueDepth() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("queues never drained (depth %d)", bc.QueueDepth())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLagSamplingHistograms pins the tentpole's live tiers: with Sample
// on, every tick lands one measurement in each producer-side span
// histogram, and subscriber fan-out feeds the queue-depth and per-shard
// drain histograms.
func TestLagSamplingHistograms(t *testing.T) {
	st := sampledStation(t, nil)
	conns := make([]io.Closer, 0, 3)
	for i := 0; i < 3; i++ {
		c, err := st.Cast().SubscribeLocal()
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
	}
	defer func() {
		for _, c := range conns {
			_ = c.Close()
		}
	}()
	const cycles = 5
	for i := 0; i < cycles; i++ {
		if err := st.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	waitQueuesDrained(t, st.Cast())
	snap := st.Registry().Snapshot()
	for _, tier := range []string{obs.SpanCommit, obs.SpanOnAir} {
		h, ok := snap.Histograms[spanMetric(tier)]
		if !ok {
			t.Fatalf("missing %s histogram: %v", tier, snap.Histograms)
		}
		if h.Count != cycles {
			t.Errorf("%s count = %d, want %d", tier, h.Count, cycles)
		}
	}
	if h := snap.Histograms["net.queue_depth"]; h.Count == 0 {
		t.Errorf("queue-depth histogram empty")
	}
	var drained uint64
	for i := 0; i < st.Cast().cfg.Shards; i++ {
		drained += snap.Histograms[fmt.Sprintf("net.shard.%d.drain_ns", i)].Count
	}
	if drained == 0 {
		t.Errorf("no drain latency samples across any shard")
	}
	// The ring carries the span events too, for /tracez.
	spans := 0
	for _, e := range st.Trace().Events() {
		if e.Type == obs.TypeSpan {
			spans++
		}
	}
	if spans != 2*cycles {
		t.Errorf("ring span events = %d, want %d", spans, 2*cycles)
	}
}

// TestSamplingDisabledHasNoSpanMetrics pins the ~0%-disabled contract:
// without Sample, no span or lag histogram is ever registered, so the
// broadcast path provably never reached for the clock.
func TestSamplingDisabledHasNoSpanMetrics(t *testing.T) {
	st := sampledStation(t, func(cfg *StationConfig) { cfg.Sample = false })
	for i := 0; i < 3; i++ {
		if err := st.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	snap := st.Registry().Snapshot()
	for name := range snap.Histograms {
		if strings.HasPrefix(name, "span.") || strings.HasSuffix(name, "drain_ns") || name == "net.queue_depth" {
			t.Errorf("unexpected sampling metric %q without Sample", name)
		}
	}
}

// TestClientRecorderFoldsStaleness pins the measured-client seam: scheme
// staleness events recorded through Station.ClientRecorder land in the
// per-scheme registry histograms the /metricsz page exports.
func TestClientRecorderFoldsStaleness(t *testing.T) {
	st := sampledStation(t, nil)
	rec := st.ClientRecorder()
	for i, e := range []obs.Event{
		{Type: obs.TypeStaleness, T: obs.At(7, 0), Method: "inv-only", Item: 3, Ser: 7, Cycles: 0, Span: 1, N: 0},
		{Type: obs.TypeStaleness, T: obs.At(9, 1), Method: "multiversion", Item: 5, Ser: 6, Cycles: 3, Span: 2, N: 2},
	} {
		rec.Record(e)
		_ = i
	}
	snap := st.Registry().Snapshot()
	age, ok := snap.Histograms["staleness.multiversion.age_cycles"]
	if !ok || age.Count != 1 || age.Max != 3 {
		t.Fatalf("staleness.multiversion.age_cycles = %+v, ok=%v", age, ok)
	}
	if lag := snap.Histograms["staleness.inv-only.lag_cycles"]; lag.Count != 1 || lag.Max != 0 {
		t.Errorf("staleness.inv-only.lag_cycles = %+v", lag)
	}
	if got := stalenessMethods(snap); len(got) != 2 || got[0] != "inv-only" || got[1] != "multiversion" {
		t.Errorf("stalenessMethods = %v", got)
	}
}

// TestStatuszEndpoint checks the operator page renders the configured
// sections, and that pprof stays unmounted unless opted into.
func TestStatuszEndpoint(t *testing.T) {
	st := sampledStation(t, nil)
	c, err := st.Cast().SubscribeLocal()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	for i := 0; i < 4; i++ {
		if err := st.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	waitQueuesDrained(t, st.Cast())
	st.ClientRecorder().Record(obs.Event{Type: obs.TypeStaleness, T: obs.At(4, 0), Method: "sgt", Cycles: 1, Span: 1})

	resp, err := http.Get(fmt.Sprintf("http://%s/statusz", st.MetricsAddr()))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /statusz: status %d err %v", resp.StatusCode, err)
	}
	page := string(body)
	for _, want := range []string{"bpush station", "traffic", "shards", "latency tiers", "commit", "on-air", "staleness", "sgt"} {
		if !strings.Contains(page, want) {
			t.Errorf("/statusz missing %q:\n%s", want, page)
		}
	}
	// pprof is opt-in; the default server must not expose it.
	resp, err = http.Get(fmt.Sprintf("http://%s/debug/pprof/", st.MetricsAddr()))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof mounted without opt-in: status %d", resp.StatusCode)
	}
}

func TestPprofOptIn(t *testing.T) {
	st := sampledStation(t, func(cfg *StationConfig) { cfg.Pprof = true })
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/pprof/", st.MetricsAddr()))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index status = %d", resp.StatusCode)
	}
	if _, err := NewStation(StationConfig{
		Addr: "127.0.0.1:0", DBSize: 20, Versions: 1,
		Workload: workload.ServerConfig{DBSize: 20, UpdateRange: 10, Theta: 0.95, TxPerCycle: 1, UpdatesPerCycle: 2, ReadsPerUpdate: 2},
		Pprof:    true,
	}); err == nil {
		t.Errorf("Pprof without HTTPAddr accepted")
	}
}

// TestMetricsStatusRaceUnderBroadcast is the /metricsz race hardening
// bar: HTTP snapshot rendering (refreshGauges + Registry.Snapshot +
// the statusz quantile recompute) hammered concurrently with a live
// broadcast loop, subscriber churn, and lag sampling. Run under -race
// in CI, it flushes out any unsynchronized access between the HTTP
// goroutines and the fan-out/writer tiers.
func TestMetricsStatusRaceUnderBroadcast(t *testing.T) {
	st := sampledStation(t, nil)
	var conns []io.Closer
	for i := 0; i < 8; i++ {
		c, err := st.Cast().SubscribeLocal()
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
	}
	defer func() {
		for _, c := range conns {
			_ = c.Close()
		}
	}()

	const cycles = 40
	done := make(chan error, 1)
	go func() {
		for i := 0; i < cycles; i++ {
			if err := st.Tick(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: 5 * time.Second}
			for i := 0; i < 20; i++ {
				for _, path := range []string{"/metricsz", "/statusz"} {
					resp, err := client.Get(fmt.Sprintf("http://%s%s", st.MetricsAddr(), path))
					if err != nil {
						t.Errorf("GET %s: %v", path, err)
						return
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					_ = resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestClientRecorderRaceUnderTick hammers the station's shared registry
// recorder, and with it the per-type counter cache behind events.<type>,
// from several client goroutines while the producer ticks into the same
// recorder and /metricsz renders the registry. Under -race it flushes out
// unsynchronized cache access; the final counts show that no increment
// was lost to a racing first use of a type.
func TestClientRecorderRaceUnderTick(t *testing.T) {
	st := sampledStation(t, nil)
	if _, ok := st.Registry().Snapshot().Counters["events.commit"]; ok {
		t.Fatal("events.commit exists before any commit event")
	}
	const cycles, clients, perClient = 40, 4, 200
	done := make(chan error, 1)
	go func() {
		for i := 0; i < cycles; i++ {
			if err := st.Tick(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := st.ClientRecorder()
			for i := 0; i < perClient; i++ {
				rec.Record(obs.Event{Type: obs.TypeCommit, Method: "sgt"})
				rec.Record(obs.Event{Type: obs.TypeStaleness, Method: "sgt", Cycles: i % 4, N: 1, Span: 2})
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		client := &http.Client{Timeout: 5 * time.Second}
		for i := 0; i < 20; i++ {
			resp, err := client.Get(fmt.Sprintf("http://%s/metricsz", st.MetricsAddr()))
			if err != nil {
				t.Errorf("GET /metricsz: %v", err)
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
		}
	}()
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	counters := st.Registry().Snapshot().Counters
	for _, name := range []string{"events.commit", "events.staleness"} {
		if got := counters[name]; got != clients*perClient {
			t.Errorf("%s = %d, want %d", name, got, clients*perClient)
		}
	}
	if got := counters["events.cycle-end"]; got != cycles {
		t.Errorf("events.cycle-end = %d, want %d", got, cycles)
	}
}

// TestQueueDepthZeroMeansDrainsRecorded pins the order a shard writer
// keeps for a sampled frame: it records the frame's drain latency before
// it takes the frame off QueueDepth. So once QueueDepth reads 0, every
// sampled frame already has its drain sample, and a test or an operator
// can read exact counts without polling the histograms.
func TestQueueDepthZeroMeansDrainsRecorded(t *testing.T) {
	bc, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = bc.Close() }()
	reg := obs.NewRegistry()
	drain := make([]*obs.Histogram, bc.cfg.Shards)
	for i := range drain {
		drain[i] = reg.Histogram(fmt.Sprintf("drain.%d", i), spanNsBounds)
	}
	if err := bc.SampleLag(obs.WallSampler(), reg.Histogram("depth", queueDepthBounds), drain, 1); err != nil {
		t.Fatal(err)
	}
	conn, err := bc.SubscribeLocal()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	go func() { _, _ = io.Copy(io.Discard, conn) }()

	frame := NewFrame([]byte("frame"))
	const frames = 300
	for i := 1; i <= frames; i++ {
		if err := bc.Broadcast(frame); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for bc.QueueDepth() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("frame %d: queue never drained", i)
			}
			runtime.Gosched()
		}
		var n uint64
		for _, h := range drain {
			n += h.Snapshot().Count
		}
		if n != uint64(i) {
			t.Fatalf("frame %d: QueueDepth reads 0 with %d drain samples recorded", i, n)
		}
	}
}
