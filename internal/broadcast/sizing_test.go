package broadcast

import (
	"testing"
)

func TestDefaultSizeParamsValid(t *testing.T) {
	p := DefaultSizeParams()
	if err := p.validate(); err != nil {
		t.Fatal(err)
	}
	if p.BaseUnits() != 6000 {
		t.Errorf("BaseUnits() = %g, want 6000 (D=1000 items of 6 units)", p.BaseUnits())
	}
}

func TestOverheadInvalidParams(t *testing.T) {
	p := DefaultSizeParams()
	p.D = 0
	if _, err := p.OverheadUnits(MethodInvOnly); err == nil {
		t.Error("invalid params accepted")
	}
	q := DefaultSizeParams()
	if _, err := q.OverheadUnits(Method(99)); err == nil {
		t.Error("unknown method accepted")
	}
}

// TestTable1OperatingPoint checks the Table-1 claims at U=50, span 3, N=10:
// invalidation-only ~1%, multiversion ~12%, SGT ~2.5%, multiversion
// caching ~1.8%. Our accounting reproduces the ordering and rough
// magnitudes (the paper's unit/bit conventions are not fully specified, so
// we assert bands rather than exact values).
func TestTable1OperatingPoint(t *testing.T) {
	p := DefaultSizeParams()
	tests := []struct {
		method   Method
		min, max float64
	}{
		{MethodInvOnly, 0.5, 1.5},
		{MethodMVOverflow, 8, 16},
		{MethodSGT, 1.5, 5},
		{MethodMVCache, 1.0, 2.5},
	}
	for _, tt := range tests {
		t.Run(tt.method.String(), func(t *testing.T) {
			got, err := p.PercentIncrease(tt.method)
			if err != nil {
				t.Fatal(err)
			}
			if got < tt.min || got > tt.max {
				t.Errorf("PercentIncrease(%v) = %.2f%%, want within [%g, %g]", tt.method, got, tt.min, tt.max)
			}
		})
	}
}

func TestTable1Ordering(t *testing.T) {
	p := DefaultSizeParams()
	pct := func(m Method) float64 {
		v, err := p.PercentIncrease(m)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	inv, mc, sgt, mv := pct(MethodInvOnly), pct(MethodMVCache), pct(MethodSGT), pct(MethodMVOverflow)
	if !(inv < mc && mc < sgt && sgt < mv) {
		t.Errorf("size ordering violated: inv=%.2f mc=%.2f sgt=%.2f mv=%.2f, want inv < mc < sgt < mv",
			inv, mc, sgt, mv)
	}
}

func TestOverheadMonotoneInUpdates(t *testing.T) {
	// Figure 7: every method's overhead grows with the number of updates.
	for _, m := range []Method{MethodInvOnly, MethodMVClustered, MethodMVOverflow, MethodSGT, MethodMVCache} {
		prev := -1.0
		for u := 50; u <= 500; u += 50 {
			p := DefaultSizeParams()
			p.U = u
			p.C = 5 * u / p.N
			got, err := p.OverheadUnits(m)
			if err != nil {
				t.Fatal(err)
			}
			if got < prev {
				t.Errorf("%v: overhead at U=%d (%.1f) below U=%d (%.1f)", m, u, got, u-50, prev)
			}
			prev = got
		}
	}
}

func TestMVOverheadMonotoneInSpan(t *testing.T) {
	// Figure 7: multiversion overhead grows with span; the others are
	// span-insensitive (up to the log(S) version-number width).
	prev := -1.0
	for s := 1; s <= 8; s++ {
		p := DefaultSizeParams()
		p.S = s
		got, err := p.OverheadUnits(MethodMVOverflow)
		if err != nil {
			t.Fatal(err)
		}
		if got < prev {
			t.Errorf("MV overhead at S=%d (%.1f) below S=%d (%.1f)", s, got, s-1, prev)
		}
		prev = got
	}
	// Invalidation-only does not depend on span at all.
	p1, p8 := DefaultSizeParams(), DefaultSizeParams()
	p8.S = 8
	a, err := p1.OverheadUnits(MethodInvOnly)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p8.OverheadUnits(MethodInvOnly)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("invalidation-only overhead depends on span: %g vs %g", a, b)
	}
}

func TestClusteredAtMostOverflowPlusIndexFree(t *testing.T) {
	// The overflow organization pays an extra pointer per item; clustered
	// pays none (but needs an on-air index we don't charge). So
	// clustered <= overflow in charged units.
	p := DefaultSizeParams()
	cl, err := p.OverheadUnits(MethodMVClustered)
	if err != nil {
		t.Fatal(err)
	}
	ov, err := p.OverheadUnits(MethodMVOverflow)
	if err != nil {
		t.Fatal(err)
	}
	if cl > ov {
		t.Errorf("clustered %g > overflow %g", cl, ov)
	}
}

func TestOverheadBucketsCeil(t *testing.T) {
	p := DefaultSizeParams()
	units, err := p.OverheadUnits(MethodInvOnly)
	if err != nil {
		t.Fatal(err)
	}
	buckets, err := p.OverheadBuckets(MethodInvOnly)
	if err != nil {
		t.Fatal(err)
	}
	if buckets < units/p.Bucket {
		t.Errorf("OverheadBuckets = %g below units/bucket = %g", buckets, units/p.Bucket)
	}
	if buckets != 9 { // ceil(50/6)
		t.Errorf("OverheadBuckets(inv-only) = %g, want 9", buckets)
	}
}

func TestMethodString(t *testing.T) {
	if MethodInvOnly.String() != "invalidation-only" {
		t.Error("MethodInvOnly.String() mismatch")
	}
	if Method(42).String() != "method(42)" {
		t.Error("unknown method String() mismatch")
	}
}
