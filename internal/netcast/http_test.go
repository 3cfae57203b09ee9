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
// cost: once an event type has been seen, folding another event of that
// type into its events.<type> counter allocates nothing.
func TestRegRecorderSteadyStateAllocs(t *testing.T) {
	r := &regRecorder{reg: obs.NewRegistry()}
	for _, e := range []obs.Event{
		{Type: obs.TypeSGEdge, From: "tx(3.1)", To: "tx(4.0)"},
		{Type: obs.TypeCycleEnd, Slots: 1000},
		{Type: obs.TypeCycleBegin},
	} {
		r.Record(e)
		if allocs := testing.AllocsPerRun(100, func() { r.Record(e) }); allocs != 0 {
			t.Errorf("Record(%s) in steady state: %v allocs, want 0", e.Type, allocs)
		}
	}
	if got := r.reg.Counter("events.sg-edge").Value(); got != 102 {
		t.Errorf("events.sg-edge = %d, want 102", got)
	}
}
