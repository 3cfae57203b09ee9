package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

func ev(t Type, cycle uint64, offset int64) Event {
	return Event{Type: t, T: Time{Cycle: cycle, Offset: offset}}
}

func TestRingRetainsLastN(t *testing.T) {
	r := NewRing(3)
	if got := r.Len(); got != 0 {
		t.Fatalf("empty ring Len = %d", got)
	}
	for i := 0; i < 5; i++ {
		r.Record(ev(TypeRead, uint64(i), 0))
	}
	if got := r.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	if got := r.Dropped(); got != 2 {
		t.Fatalf("Dropped = %d, want 2", got)
	}
	events := r.Events()
	want := []uint64{2, 3, 4}
	for i, e := range events {
		if e.T.Cycle != want[i] {
			t.Fatalf("event %d cycle = %d, want %d (oldest first)", i, e.T.Cycle, want[i])
		}
	}
	// The returned slice is a copy: mutating it must not affect the ring.
	events[0].T.Cycle = 999
	if r.Events()[0].T.Cycle != 2 {
		t.Fatalf("Events returned an aliased buffer")
	}
}

func TestRingMinimumCapacity(t *testing.T) {
	r := NewRing(0)
	r.Record(ev(TypeRead, 1, 0))
	r.Record(ev(TypeRead, 2, 0))
	if got := r.Len(); got != 1 {
		t.Fatalf("Len = %d, want 1", got)
	}
	if got := r.Events()[0].T.Cycle; got != 2 {
		t.Fatalf("retained cycle = %d, want 2", got)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONL(&buf)
	in := []Event{
		{Type: TypeRunBegin, Method: "inv-only"},
		{Type: TypeRead, T: Time{Cycle: 3, Offset: 17}, Item: 42, Source: SourceAir, Ser: 2},
		{Type: TypeAbort, T: Time{Cycle: 5, Offset: 1}, Reason: "x invalidated", Span: 2, Cycles: 3, Slots: 2500},
		{Type: TypeSGCycleTest, T: Time{Cycle: 7}, To: "T(7,0)", Hit: true},
	}
	for _, e := range in {
		w.Record(e)
	}
	if err := w.Err(); err != nil {
		t.Fatalf("JSONL error: %v", err)
	}
	out, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\nin:  %+v\nout: %+v", in, out)
	}
}

func TestJSONLDeterministicBytes(t *testing.T) {
	emit := func() []byte {
		var buf bytes.Buffer
		w := NewJSONL(&buf)
		w.Record(Event{Type: TypeCommit, T: Time{Cycle: 9, Offset: 4}, Span: 3, Cycles: 4, Slots: 4100, Ser: 9})
		w.Record(Event{Type: TypeRead, T: Time{Cycle: 9, Offset: 5}, Item: 7, Source: SourceCache, Ser: 8})
		return buf.Bytes()
	}
	if !bytes.Equal(emit(), emit()) {
		t.Fatalf("same events encoded to different bytes")
	}
}

func TestReadJSONLRejectsMalformed(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{\"type\":\"read\"}\nnot json\n")); err == nil {
		t.Fatalf("malformed line accepted")
	} else if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error does not name the line: %v", err)
	}
	if _, err := ReadJSONL(strings.NewReader("{\"t\":{\"cycle\":1,\"offset\":0}}\n")); err == nil {
		t.Fatalf("missing event type accepted")
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	w.n--
	return len(p), nil
}

func TestJSONLStickyError(t *testing.T) {
	w := NewJSONL(&failWriter{n: 1})
	w.Record(ev(TypeRead, 1, 0))
	if err := w.Err(); err != nil {
		t.Fatalf("first write failed: %v", err)
	}
	w.Record(ev(TypeRead, 2, 0))
	if err := w.Err(); err == nil {
		t.Fatalf("write error not surfaced")
	}
	w.Record(ev(TypeRead, 3, 0)) // must not panic, error stays first
	if !strings.Contains(w.Err().Error(), "disk full") {
		t.Fatalf("sticky error lost: %v", w.Err())
	}
}

func TestTeeComposition(t *testing.T) {
	if Tee() != nil {
		t.Fatalf("Tee of nothing should be nil")
	}
	if Tee(nil, Nop{}) != nil {
		t.Fatalf("Tee of nil and Nop should be nil")
	}
	r1, r2 := NewRing(4), NewRing(4)
	if got := Tee(nil, r1); got != Recorder(r1) {
		t.Fatalf("Tee of one sink should return it directly")
	}
	both := Tee(r1, Nop{}, r2)
	both.Record(ev(TypeRead, 1, 0))
	if r1.Len() != 1 || r2.Len() != 1 {
		t.Fatalf("Tee did not fan out: %d/%d", r1.Len(), r2.Len())
	}
}

func TestAggregatorSummary(t *testing.T) {
	a := NewAggregator()
	a.Record(Event{Type: TypeRunBegin, Method: "multiversion"})
	a.Record(ev(TypeCycleBegin, 1, 0))
	a.Record(ev(TypeCycleBegin, 2, 0))
	a.Record(ev(TypeCycleMissed, 3, 0))
	a.Record(Event{Type: TypeRead, T: Time{Cycle: 1}, Source: SourceAir})
	a.Record(Event{Type: TypeRead, T: Time{Cycle: 1}, Source: SourceCache})
	a.Record(Event{Type: TypeRead, T: Time{Cycle: 2}, Source: SourceVersion})
	a.Record(Event{Type: TypeRead, T: Time{Cycle: 2}, Source: SourceCache})
	a.Record(Event{Type: TypeInvHit, T: Time{Cycle: 2}, Item: 5, Reason: "fatal"})
	a.Record(Event{Type: TypeRestart, T: Time{Cycle: 2}})
	a.Record(Event{Type: TypeCommit, T: Time{Cycle: 2}, Span: 2, Cycles: 2, Slots: 2000, Ser: 1})
	a.Record(Event{Type: TypeCommit, T: Time{Cycle: 5}, Span: 1, Cycles: 4, Slots: 4000, Ser: 5})
	a.Record(Event{Type: TypeAbort, T: Time{Cycle: 6}, Reason: "x", Span: 1, Cycles: 1, Slots: 900})

	s := a.Summary()
	if s.Method != "multiversion" {
		t.Fatalf("Method = %q", s.Method)
	}
	if s.Queries != 3 || s.Committed != 2 || s.Aborted != 1 {
		t.Fatalf("counts = %d/%d/%d", s.Queries, s.Committed, s.Aborted)
	}
	if math.Abs(s.AbortRate-1.0/3) > 1e-12 || math.Abs(s.AcceptRate-2.0/3) > 1e-12 {
		t.Fatalf("rates = %g/%g", s.AbortRate, s.AcceptRate)
	}
	if s.MeanLatency != 3 || s.MeanLatencySlots != 3000 || s.MeanSpan != 1.5 {
		t.Fatalf("latency/span = %g/%g/%g", s.MeanLatency, s.MeanLatencySlots, s.MeanSpan)
	}
	// Staleness: (2-1) and (5-5) -> mean 0.5.
	if s.MeanStaleness != 0.5 {
		t.Fatalf("staleness = %g", s.MeanStaleness)
	}
	if s.Reads != 4 || s.CacheReads != 2 || s.AirReads != 1 || s.VersionReads != 1 {
		t.Fatalf("reads = %d/%d/%d/%d", s.Reads, s.CacheReads, s.AirReads, s.VersionReads)
	}
	if s.CacheHitRate != 0.5 || s.OverflowReadRate != 0.25 {
		t.Fatalf("read rates = %g/%g", s.CacheHitRate, s.OverflowReadRate)
	}
	if s.InvalidationHits != 1 || s.Restarts != 1 || s.CyclesHeard != 2 || s.CyclesMissed != 1 {
		t.Fatalf("hits/restarts/cycles = %d/%d/%d/%d", s.InvalidationHits, s.Restarts, s.CyclesHeard, s.CyclesMissed)
	}
}

func TestRegistryMetrics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("a.count")
	c.Inc()
	c.Add(4)
	if reg.Counter("a.count") != c {
		t.Fatalf("counter handle not stable")
	}
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d", got)
	}
	g := reg.Gauge("a.gauge")
	g.Set(2.5)
	if got := reg.Gauge("a.gauge").Value(); got != 2.5 {
		t.Fatalf("gauge = %g", got)
	}
	h := reg.Histogram("a.hist", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 3, 100} {
		h.Observe(v)
	}
	snap := h.Snapshot()
	if snap.Count != 4 || snap.Min != 0.5 || snap.Max != 100 {
		t.Fatalf("hist snapshot = %+v", snap)
	}
	wantCounts := []uint64{1, 1, 1, 1}
	if !reflect.DeepEqual(snap.Counts, wantCounts) {
		t.Fatalf("hist counts = %v, want %v", snap.Counts, wantCounts)
	}
	if snap.P50 <= 0 || snap.P99 > 100 {
		t.Fatalf("quantiles = %g/%g", snap.P50, snap.P99)
	}
}

func TestRegistryHistogramInvalidBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("invalid bounds did not panic")
		}
	}()
	NewRegistry().Histogram("bad", nil)
}

func TestRegistrySnapshotJSONDeterministic(t *testing.T) {
	build := func() []byte {
		reg := NewRegistry()
		reg.Counter("z.last").Add(1)
		reg.Counter("a.first").Add(2)
		reg.Gauge("m.middle").Set(3)
		reg.Histogram("h", []float64{1, 10}).Observe(5)
		out, err := json.Marshal(reg)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return out
	}
	a, b := build(), build()
	if !bytes.Equal(a, b) {
		t.Fatalf("registry JSON not deterministic:\n%s\n%s", a, b)
	}
	// encoding/json sorts map keys, so names must appear in sorted order.
	s := string(a)
	if strings.Index(s, "a.first") > strings.Index(s, "z.last") {
		t.Fatalf("counter names not sorted: %s", s)
	}
}

// TestHistogramSnapshotRoundTrip pins the offline-recompute contract:
// a snapshot carries the full bucket layout (Bounds, Counts, Min, Max,
// Sum), so Restore rebuilds a histogram whose every quantile equals the
// live one exactly — and the snapshot survives a JSON round trip intact.
// bpush-inspect lag depends on this to reproduce /statusz numbers from a
// saved /metricsz document.
func TestHistogramSnapshotRoundTrip(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("rt.hist", []float64{1, 10, 100, 1000, 10000})
	for i := 1; i <= 333; i++ {
		h.Observe(float64(i * 37))
	}
	live, err := h.Snapshot().Restore()
	if err != nil {
		t.Fatal(err)
	}

	raw, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back RegistrySnapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	snap, ok := back.Histograms["rt.hist"]
	if !ok {
		t.Fatal("histogram missing after JSON round trip")
	}
	restored, err := snap.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if restored.N() != live.N() || restored.Min() != live.Min() || restored.Max() != live.Max() || restored.Sum() != live.Sum() {
		t.Fatalf("aggregates differ after JSON round trip: %+v vs live", snap)
	}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		if got, want := restored.Quantile(q), live.Quantile(q); got != want {
			t.Errorf("Quantile(%g) = %g after round trip, want %g", q, got, want)
		}
	}
	// The precomputed P50/P95/P99 fields must agree with recomputation.
	if v := restored.Quantile(0.95); v != snap.P95 {
		t.Errorf("restored Quantile(0.95) = %g, want P95 field %g", v, snap.P95)
	}
}

// TestHistogramSnapshotQuantileErrors: a corrupted snapshot must refuse
// to recompute rather than return silently-wrong quantiles.
func TestHistogramSnapshotQuantileErrors(t *testing.T) {
	bad := HistogramSnapshot{Bounds: []float64{1, 2}, Counts: []uint64{1}, Count: 1, Min: 0, Max: 3, Sum: 3}
	if _, err := bad.Restore(); err == nil {
		t.Error("Restore accepted mismatched counts length")
	}
}
