package netcast

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"

	"bpush/internal/fault"
	"bpush/internal/obs"
	"bpush/internal/workload"
)

func metricsStation(t *testing.T, plan fault.Plan) *Station {
	t.Helper()
	st, err := NewStation(StationConfig{
		Addr:     "127.0.0.1:0",
		DBSize:   50,
		Versions: 2,
		Workload: workload.ServerConfig{
			DBSize: 50, UpdateRange: 25, Theta: 0.95,
			TxPerCycle: 2, UpdatesPerCycle: 4, ReadsPerUpdate: 2,
		},
		Seed:     7,
		Fault:    plan,
		HTTPAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	return st
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, into); err != nil {
		t.Fatalf("decode %s: %v\n%s", url, err, body)
	}
}

func TestMetricszEndpoint(t *testing.T) {
	st := metricsStation(t, fault.Plan{})
	if st.MetricsAddr() == "" {
		t.Fatal("no metrics address")
	}
	const cycles = 5
	for i := 0; i < cycles; i++ {
		if err := st.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	var snap obs.RegistrySnapshot
	getJSON(t, fmt.Sprintf("http://%s/metricsz", st.MetricsAddr()), &snap)
	if got := snap.Counters["events.cycle-begin"]; got != cycles {
		t.Errorf("events.cycle-begin = %d, want %d", got, cycles)
	}
	if got := snap.Counters["events.cycle-end"]; got != cycles {
		t.Errorf("events.cycle-end = %d, want %d", got, cycles)
	}
	h, ok := snap.Histograms["cycle.slots"]
	if !ok {
		t.Fatalf("cycle.slots histogram missing: %v", snap.Histograms)
	}
	if h.Count != cycles || h.Min <= 0 {
		t.Errorf("cycle.slots = %+v", h)
	}
	if _, ok := snap.Gauges["net.subscribers"]; !ok {
		t.Errorf("traffic gauges missing: %v", snap.Gauges)
	}
}

func TestTracezEndpoint(t *testing.T) {
	st := metricsStation(t, fault.Plan{Corrupt: 1})
	for i := 0; i < 3; i++ {
		if err := st.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	var trace struct {
		Dropped uint64      `json:"dropped"`
		Events  []obs.Event `json:"events"`
	}
	getJSON(t, fmt.Sprintf("http://%s/tracez", st.MetricsAddr()), &trace)
	if len(trace.Events) == 0 {
		t.Fatal("no trace events")
	}
	kinds := map[obs.Type]int{}
	for _, e := range trace.Events {
		kinds[e.Type]++
	}
	if kinds[obs.TypeCycleBegin] != 3 || kinds[obs.TypeCycleEnd] != 3 {
		t.Errorf("cycle events = %v", kinds)
	}
	// Corrupt=1 mangles every broadcast frame, and the mangler reports each
	// as a fault event into the same ring.
	if kinds[obs.TypeFault] == 0 {
		t.Errorf("no fault events despite Corrupt=1: %v", kinds)
	}
	// The registry folds the same stream into per-kind fault counters.
	var snap obs.RegistrySnapshot
	getJSON(t, fmt.Sprintf("http://%s/metricsz", st.MetricsAddr()), &snap)
	if snap.Counters["faults.corrupt"] == 0 {
		t.Errorf("faults.corrupt counter empty: %v", snap.Counters)
	}
}

// TestTraceRingHoldsWholeCycles pins the /tracez ring's reach on the
// paper's write-heavy maximum (D = 1,000, N = 50, U = 500, about 1,900
// delta edges per cycle): with the default TraceRing, the producer's
// per-cycle events — cycle-begin, cycle-end, the three producer-phase
// events and the sg-delta event — of at least two whole cycles are there
// after 8 ticks.
func TestTraceRingHoldsWholeCycles(t *testing.T) {
	st, err := NewStation(StationConfig{
		Addr:     "127.0.0.1:0",
		DBSize:   1000,
		Versions: 4,
		Workload: workload.ServerConfig{
			DBSize: 1000, UpdateRange: 500, Offset: 100, Theta: 0.95,
			TxPerCycle: 50, UpdatesPerCycle: 500, ReadsPerUpdate: 4,
		},
		Seed:     1,
		HTTPAddr: "127.0.0.1:0",
		Sample:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	for i := 0; i < 8; i++ {
		if err := st.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	var trace struct {
		Dropped uint64      `json:"dropped"`
		Events  []obs.Event `json:"events"`
	}
	getJSON(t, fmt.Sprintf("http://%s/tracez", st.MetricsAddr()), &trace)
	type seen struct{ begin, end, phases, delta int }
	cycles := map[uint64]*seen{}
	var edges int64
	for _, e := range trace.Events {
		c := cycles[e.T.Cycle]
		if c == nil {
			c = &seen{}
			cycles[e.T.Cycle] = c
		}
		switch e.Type {
		case obs.TypeCycleBegin:
			c.begin++
		case obs.TypeCycleEnd:
			c.end++
		case obs.TypeProducerPhase:
			c.phases++
		case obs.TypeSGDelta:
			c.delta++
			edges += e.N
		}
	}
	whole := 0
	for _, c := range cycles {
		if *c == (seen{begin: 1, end: 1, phases: 3, delta: 1}) {
			whole++
		}
	}
	if whole < 2 {
		t.Errorf("/tracez holds %d whole producer cycles (%d events, %d dropped), want >= 2", whole, len(trace.Events), trace.Dropped)
	}
	if want := st.Registry().Counter("sg.delta_edges").Value(); edges != want || edges < 1000 {
		t.Errorf("sg-delta events in the ring report %d edges, sg.delta_edges = %d (want equal, and >= 1000)", edges, want)
	}
}

func TestStationWithoutHTTP(t *testing.T) {
	st, err := NewStation(StationConfig{
		Addr:     "127.0.0.1:0",
		DBSize:   20,
		Versions: 1,
		Workload: workload.ServerConfig{
			DBSize: 20, UpdateRange: 10, Theta: 0.95,
			TxPerCycle: 1, UpdatesPerCycle: 2, ReadsPerUpdate: 2,
		},
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st.Close() }()
	if st.MetricsAddr() != "" {
		t.Errorf("unexpected metrics address %q", st.MetricsAddr())
	}
	if err := st.Tick(); err != nil {
		t.Fatal(err)
	}
	// Metrics still accumulate for in-process access.
	if st.Registry().Counter("events.cycle-begin").Value() != 1 {
		t.Error("registry not updated without HTTP endpoint")
	}
}

// TestRegRecorderSteadyStateAllocs pins the registry recorder's per-event
// cost: once an event's metrics exist, folding another event with the same
// type (and the same Reason or Method, where its metric names carry one)
// allocates nothing. It covers every event type the station's producer,
// fan-out and tick loop or a ClientRecorder user records, and checks that
// sg.delta_edges sums the sg-delta events' edge counts.
func TestRegRecorderSteadyStateAllocs(t *testing.T) {
	r := &regRecorder{reg: obs.NewRegistry()}
	var deltaEdges int64
	for _, e := range []obs.Event{
		{Type: obs.TypeRunBegin, Method: "sgt"},
		{Type: obs.TypeCycleBegin},
		{Type: obs.TypeCycleEnd, Slots: 1000},
		{Type: obs.TypeCycleMissed},
		{Type: obs.TypeFrame, Slots: 1000},
		{Type: obs.TypeRead, Item: 7, Source: obs.SourceAir, Ser: 3},
		{Type: obs.TypeInvHit, Item: 7, Reason: "fatal"},
		{Type: obs.TypeRestart, Item: 7},
		{Type: obs.TypeAbort, Reason: "x invalidated", Span: 2, Cycles: 3},
		{Type: obs.TypeCommit, Span: 2, Cycles: 3, Ser: 4},
		{Type: obs.TypeSGEdge, Item: 7, From: "R", To: "tx(4.0)"},
		{Type: obs.TypeSGCycleTest, To: "tx(4.0)", Hit: true},
		{Type: obs.TypeSGDelta, N: 1918},
		{Type: obs.TypeProducerPhase, Reason: obs.PhasePlan, N: 50, Slots: 480},
		{Type: obs.TypeProducerPhase, Reason: obs.PhaseExecute, N: 1918},
		{Type: obs.TypeSpan, Reason: obs.SpanCommit, N: 900_000},
		{Type: obs.TypeSpan, Reason: obs.SpanOnAir, N: 4_000},
		{Type: obs.TypeFault, Reason: "drop"},
		{Type: obs.TypeStaleness, Method: "sgt", Ser: 3, Cycles: 2, Span: 1, N: 1},
		{Type: obs.TypeStaleness, Method: "mv", Ser: 3, Cycles: 1},
	} {
		r.Record(e)
		allocs := testing.AllocsPerRun(100, func() { r.Record(e) })
		if allocs != 0 {
			t.Errorf("Record(%s %q) in steady state: %v allocs, want 0", e.Type, e.Reason+e.Method, allocs)
		}
		if e.Type == obs.TypeSGDelta {
			deltaEdges += 102 * e.N // one warm-up event, then 101 from AllocsPerRun
		}
	}
	for n := int64(0); n < 10; n++ {
		r.Record(obs.Event{Type: obs.TypeSGDelta, N: n})
		deltaEdges += n
	}
	if got := r.reg.Counter("sg.delta_edges").Value(); got != deltaEdges {
		t.Errorf("sg.delta_edges = %d, want %d", got, deltaEdges)
	}
	if got := r.reg.Counter("events.sg-delta").Value(); got != 112 {
		t.Errorf("events.sg-delta = %d, want 112", got)
	}
	if got := r.reg.Counter("events.producer-phase").Value(); got != 204 {
		t.Errorf("events.producer-phase = %d, want 204", got)
	}
	if got := r.reg.Counter("producer.execute.units").Value(); got != 102*1918 {
		t.Errorf("producer.execute.units = %d, want %d", got, 102*1918)
	}
	if got := r.reg.Histogram("staleness.sgt.age_cycles", nil).Snapshot().Count; got != 102 {
		t.Errorf("staleness.sgt.age_cycles holds %d samples, want 102", got)
	}
}
