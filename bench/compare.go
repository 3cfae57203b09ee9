package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// compareFiles prints one row per (workload, end-to-end metric) of two
// result sets — A the parent, B the change — and returns errWorse when
// any metric's median is worse than its bound allows.
//
// A metric whose run-to-run spread (interquartile range over median, the
// wider of the two sides) exceeds its bound cannot be resolved by these
// runs: it is reported as unresolved, unless every run of one side reads
// better than every run of the other.
func compareFiles(pathA, pathB string, w io.Writer) error {
	a, err := readResultSet(pathA)
	if err != nil {
		return err
	}
	b, err := readResultSet(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A = %s (%s, %d runs)   B = %s (%s, %d runs)\n",
		pathA, a.Environment.GitSHA, a.Environment.Runs, pathB, b.Environment.GitSHA, b.Environment.Runs)
	worse := 0
	for _, wl := range workloads {
		wa, okA := a.Workloads[wl.name]
		wb, okB := b.Workloads[wl.name]
		if !okA || !okB {
			fmt.Fprintf(w, "\n%s: missing from one side\n", wl.name)
			worse++
			continue
		}
		fmt.Fprintf(w, "\n%s\n  %-24s %12s %22s %12s %22s %9s %6s  %s\n", wl.name,
			"metric", "A median", "A q1..q3", "B median", "B q1..q3", "B vs A", "bound", "verdict")
		for _, m := range endToEnd {
			ma, mb := wa.Metrics[m.name], wb.Metrics[m.name]
			verdict, by := judge(m, ma, mb)
			if verdict == "worse" {
				worse++
			}
			fmt.Fprintf(w, "  %-24s %12.6g %10.5g..%-10.5g %12.6g %10.5g..%-10.5g %+8.2f%% %5.0f%%  %s\n",
				m.name, ma.Median, ma.Q1, ma.Q3, mb.Median, mb.Q1, mb.Q3, 100*by, 100*m.bound, verdict)
		}
	}
	if worse > 0 {
		return errWorse
	}
	return nil
}

func readResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs resultSet
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}

// judge returns the verdict on one metric and by how much B's median is
// worse than A's as a share of A's (negative when B is better).
func judge(m metric, a, b metricSet) (verdict string, worseBy float64) {
	if len(a.Values) == 0 || len(b.Values) == 0 {
		return "worse", math.Inf(1)
	}
	sign := 1.0
	if m.better == "higher" {
		sign = -1
	}
	worseBy = sign * ratio(b.Median-a.Median, math.Abs(a.Median))
	spread := math.Max(ratio(a.Q3-a.Q1, math.Abs(a.Median)), ratio(b.Q3-b.Q1, math.Abs(b.Median)))
	minA, maxA := extent(a.Values)
	minB, maxB := extent(b.Values)
	apart := maxA < minB || maxB < minA // every run of one side beats every run of the other
	switch {
	case spread > m.bound && !apart:
		return "unresolved", worseBy
	case worseBy > m.bound:
		return "worse", worseBy
	default:
		return "ok", worseBy
	}
}

func extent(vals []float64) (lo, hi float64) {
	lo, hi = vals[0], vals[0]
	for _, v := range vals {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return lo, hi
}
