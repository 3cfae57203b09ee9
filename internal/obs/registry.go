package obs

import (
	"encoding/json"
	"math"
	"sync"
	"sync/atomic"

	"bpush/internal/stats"
)

// Registry is a named-metric store: counters, gauges, and fixed-bucket
// histograms. Metric handles are cheap and stable — look them up once and
// update lock-free (counters, gauges) or under a short mutex (histograms).
// Snapshots render every metric in sorted name order, so the JSON the
// station's /metricsz endpoint serves is deterministic for a given state.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		//lint:allow hotalloc constructed once per metric name; steady-state lookups return the cached counter
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (later calls reuse the existing buckets and
// ignore bounds). Invalid bounds panic: metric registration is
// programmer-controlled configuration, not input.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		sh, err := stats.NewHistogram(bounds)
		if err != nil {
			panic("obs: " + err.Error())
		}
		//lint:allow hotalloc constructed once per metric name; steady-state lookups return the cached histogram
		h = &Histogram{h: sh}
		r.histograms[name] = h
	}
	return h
}

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

// Add increases the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increases the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable float metric.
type Gauge struct{ bits atomic.Uint64 }

// Set stores the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a registry-owned fixed-bucket histogram; it wraps
// stats.Histogram with a mutex so concurrent observers are safe.
type Histogram struct {
	mu sync.Mutex
	h  *stats.Histogram
}

// Observe records one sample.
func (h *Histogram) Observe(x float64) {
	h.mu.Lock()
	h.h.Add(x)
	h.mu.Unlock()
}

// Snapshot returns a copy of the histogram state with quantile estimates.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	hh := h.h
	s := HistogramSnapshot{
		Count:  hh.N(),
		Sum:    hh.Sum(),
		Min:    hh.Min(),
		Max:    hh.Max(),
		Bounds: hh.Bounds(),
		Counts: hh.Counts(),
	}
	if hh.N() > 0 {
		s.P50 = hh.Quantile(0.50)
		s.P90 = hh.Quantile(0.90)
		s.P95 = hh.Quantile(0.95)
		s.P99 = hh.Quantile(0.99)
	}
	return s
}

// HistogramSnapshot is the exported state of one histogram. Bounds and
// Counts carry the full bucket layout (Counts has one trailing overflow
// bucket), so any consumer of a snapshot — not just this process — can
// rebuild the histogram and recompute quantiles exactly; the P* fields
// are the same values precomputed for convenience.
type HistogramSnapshot struct {
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	P50    float64   `json:"p50"`
	P90    float64   `json:"p90"`
	P95    float64   `json:"p95"`
	P99    float64   `json:"p99"`
}

// Quantile recomputes the q-quantile exactly from the snapshot's bucket
// bounds and counts — the round trip a decoded /metricsz snapshot goes
// through offline. It returns the same value
// the live histogram's Quantile would have, or an error when the
// snapshot's bucket layout is inconsistent.
func (s HistogramSnapshot) Quantile(q float64) (float64, error) {
	h, err := stats.Restore(s.Bounds, s.Counts, s.Min, s.Max, s.Sum)
	if err != nil {
		return 0, err
	}
	return h.Quantile(q), nil
}

// Restore rebuilds the full stats.Histogram behind the snapshot, for
// consumers that need more than one quantile or want to Merge several
// snapshots (e.g. per-shard drain histograms) before querying.
func (s HistogramSnapshot) Restore() (*stats.Histogram, error) {
	return stats.Restore(s.Bounds, s.Counts, s.Min, s.Max, s.Sum)
}

// RegistrySnapshot is a point-in-time copy of every metric. Its JSON
// encoding is deterministic: encoding/json renders map keys in sorted
// order.
type RegistrySnapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every registered metric.
func (r *Registry) Snapshot() RegistrySnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := RegistrySnapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// MarshalJSON renders the registry's current snapshot.
func (r *Registry) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.Snapshot())
}
