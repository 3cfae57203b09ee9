package main

import (
	"math"
	"sort"
)

// quantile returns the q-th quantile (0..1) of vals by linear
// interpolation between order statistics; 0 for an empty sample. vals is
// sorted in place.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	pos := q * float64(len(vals)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return vals[lo] + (vals[hi]-vals[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// quantileNs is quantile over nanosecond samples, scaled by 1/div (1e3
// for microseconds, 1e6 for milliseconds).
func quantileNs(ns []int64, q, div float64) float64 {
	f := make([]float64, len(ns))
	for i, v := range ns {
		f[i] = float64(v)
	}
	return quantile(f, q) / div
}

// quartiles returns the three cut points of vals exactly as Python's
// statistics.quantiles(vals, n=4) does (the exclusive method), which is
// the spread rule the acceptance check of a benchmark uses. It needs at
// least two values; with fewer it returns the value itself three times.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	m := len(s)
	switch m {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func sumNs(ns []int64) int64 {
	var t int64
	for _, v := range ns {
		t += v
	}
	return t
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
