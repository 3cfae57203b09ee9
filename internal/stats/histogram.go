package stats

import (
	"fmt"
	"math"
	"sort"
)

// Histogram is a fixed-bucket histogram with quantile estimation. Bounds
// are ascending upper bounds: sample x lands in the first bucket whose
// bound satisfies x <= bound, and in a final overflow bucket when it
// exceeds every bound (len(Counts) == len(Bounds)+1). The bucket layout
// is fixed at construction, which is what makes two histograms over the
// same layout mergeable — the obs registry and the experiments harness
// both rely on Merge to combine per-client histograms deterministically.
type Histogram struct {
	bounds []float64
	counts []uint64
	n      uint64
	sum    float64
	min    float64
	max    float64
}

// NewHistogram creates a histogram over the given ascending upper bounds.
func NewHistogram(bounds []float64) (*Histogram, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("stats: histogram needs at least one bucket bound")
	}
	for i, b := range bounds {
		if math.IsNaN(b) {
			return nil, fmt.Errorf("stats: histogram bound %d is NaN", i)
		}
		if i > 0 && b <= bounds[i-1] {
			return nil, fmt.Errorf("stats: histogram bounds not strictly ascending at %d (%g <= %g)", i, b, bounds[i-1])
		}
	}
	//lint:allow hotalloc histograms are built once per metric registration, not per cycle
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		//lint:allow hotalloc histograms are built once per metric registration, not per cycle
		counts: make([]uint64, len(bounds)+1),
	}
	return h, nil
}

// Restore rebuilds a histogram from previously exported state — the
// bucket bounds and counts of a snapshot, plus the observed extremes and
// sum. The restored histogram answers Quantile/Mean/N exactly as the
// original did at snapshot time, which is what lets offline tools
// (bpush-inspect lag, the /statusz renderer) recompute quantiles from a
// registry snapshot instead of trusting pre-baked estimates. Counts must
// have exactly len(bounds)+1 entries (the last is the overflow bucket).
func Restore(bounds []float64, counts []uint64, min, max, sum float64) (*Histogram, error) {
	h, err := NewHistogram(bounds)
	if err != nil {
		return nil, err
	}
	if len(counts) != len(h.counts) {
		return nil, fmt.Errorf("stats: restore with %d counts for %d buckets (want %d)", len(counts), len(bounds), len(h.counts))
	}
	var n uint64
	for i, c := range counts {
		h.counts[i] = c
		n += c
	}
	h.n = n
	if n > 0 {
		if math.IsNaN(min) || math.IsNaN(max) || min > max {
			return nil, fmt.Errorf("stats: restore with invalid extremes [%g, %g]", min, max)
		}
		h.min, h.max, h.sum = min, max, sum
	}
	return h, nil
}

// LinearBuckets returns n ascending bounds start, start+width, ... — a
// convenience for the common evenly spaced layout.
func LinearBuckets(start, width float64, n int) []float64 {
	if n < 1 || width <= 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// Add records one sample. NaN samples are ignored.
func (h *Histogram) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	if h.n == 0 {
		h.min, h.max = x, x
	} else {
		if x < h.min {
			h.min = x
		}
		if x > h.max {
			h.max = x
		}
	}
	h.n++
	h.sum += x
	i := sort.SearchFloat64s(h.bounds, x) // first bound >= x
	h.counts[i]++
}

// N returns the sample count.
func (h *Histogram) N() uint64 { return h.n }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() float64 { return h.sum }

// Min returns the smallest sample (0 with no samples).
func (h *Histogram) Min() float64 { return h.min }

// Max returns the largest sample (0 with no samples).
func (h *Histogram) Max() float64 { return h.max }

// Bounds returns a copy of the bucket upper bounds.
func (h *Histogram) Bounds() []float64 { return append([]float64(nil), h.bounds...) }

// Counts returns a copy of the per-bucket counts; the final element is
// the overflow bucket (samples above every bound).
func (h *Histogram) Counts() []uint64 { return append([]uint64(nil), h.counts...) }

// Quantile estimates the q-quantile (q in [0, 1]) by linear interpolation
// within the bucket holding the target rank, clamped to the observed
// [Min, Max]. With no samples it returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank <= next {
			lo, hi := h.bucketEdges(i)
			frac := (rank - cum) / float64(c)
			v := lo + frac*(hi-lo)
			return clamp(v, h.min, h.max)
		}
		cum = next
	}
	return h.max
}

// bucketEdges returns the interpolation edges of bucket i, substituting
// the observed extremes for the unbounded ends.
func (h *Histogram) bucketEdges(i int) (lo, hi float64) {
	if i == 0 {
		lo = h.min
	} else {
		lo = h.bounds[i-1]
	}
	if i == len(h.bounds) {
		hi = h.max
	} else {
		hi = h.bounds[i]
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Merge folds other into h. Both histograms must share the same bucket
// layout; merging is commutative and associative up to floating-point
// addition order of the sums.
func (h *Histogram) Merge(other *Histogram) error {
	if other == nil {
		return nil
	}
	if len(other.bounds) != len(h.bounds) {
		return fmt.Errorf("stats: merge of mismatched histograms (%d vs %d buckets)", len(other.bounds), len(h.bounds))
	}
	for i := range h.bounds {
		if h.bounds[i] != other.bounds[i] {
			return fmt.Errorf("stats: merge of mismatched histograms (bound %d: %g vs %g)", i, h.bounds[i], other.bounds[i])
		}
	}
	if other.n == 0 {
		return nil
	}
	if h.n == 0 {
		h.min, h.max = other.min, other.max
	} else {
		if other.min < h.min {
			h.min = other.min
		}
		if other.max > h.max {
			h.max = other.max
		}
	}
	h.n += other.n
	h.sum += other.sum
	for i := range h.counts {
		h.counts[i] += other.counts[i]
	}
	return nil
}
