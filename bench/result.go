package main

import (
	"fmt"
	"io"
	"math"
)

// runOptions is how one run is asked for.
type runOptions struct {
	seed int64
	prof profile
	// seconds, when positive, bounds the measured phase by time and
	// ignores the profile's cycle and round counts.
	seconds float64
	trace   bool
	tmpRoot string
	now     func() int64
	log     io.Writer // progress and reports, never results
}

// value is one emitted number and the sample count behind it.
type value struct {
	v float64
	n int
}

// exact holds the counts that must repeat bit for bit for one seed and
// one cycle count.
type exact struct {
	cycles, queries, aborted, frameBytes, latencyCycles int64
}

// result is one run of one workload.
type result struct {
	workload string
	seed     int64
	traced   bool
	vals     map[string]value
	exact    exact

	attempted, failed int64
	failures          []string

	spinBefore, spinAfter float64
	// cyclesPerS is kept beside vals because a traced run, which emits only
	// per-layer names, still needs it for trace.overhead_pct.
	cyclesPerS float64
	spans      []*spanBuf
}

func newResult(workload string, o runOptions) *result {
	return &result{workload: workload, seed: o.seed, traced: o.trace, vals: map[string]value{}}
}

func (r *result) set(name string, v float64, n int) { r.vals[name] = value{v, n} }

func (r *result) get(name string) float64 { return r.vals[name].v }

// fail counts n failed operations of one kind.
func (r *result) fail(n int64, what string) {
	if n > 0 {
		r.failed += n
		r.failures = append(r.failures, fmt.Sprintf("%d x %s", n, what))
	}
}

// noisy reports whether the host's speed moved by more than a tenth
// between the two canary readings around the run.
func (r *result) noisy() bool {
	return math.Abs(r.spinAfter-r.spinBefore) > 0.1*math.Min(r.spinBefore, r.spinAfter)
}

// catalogue returns the names this result must carry.
func (r *result) catalogue() []metric {
	if r.traced {
		return perLayer
	}
	return endToEnd
}

// check reports names that are missing, undeclared or not finite.
func (r *result) check() error {
	want := r.catalogue()
	for _, m := range want {
		v, ok := r.vals[m.name]
		if !ok {
			return fmt.Errorf("%s: metric %s not emitted", r.workload, m.name)
		}
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			return fmt.Errorf("%s: metric %s is %v", r.workload, m.name, v.v)
		}
	}
	if len(r.vals) != len(want) {
		declared := map[string]bool{}
		for _, m := range want {
			declared[m.name] = true
		}
		for name := range r.vals {
			if !declared[name] {
				return fmt.Errorf("%s: metric %s emitted but not declared", r.workload, name)
			}
		}
	}
	return nil
}

// print writes every metric by name with its unit.
func (r *result) print(w io.Writer) {
	kind := "end-to-end"
	if r.traced {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(w, "%s seed %d, %s\n", r.workload, r.seed, kind)
	for _, m := range r.catalogue() {
		v := r.vals[m.name]
		fmt.Fprintf(w, "  %-34s %16.6g %-8s n=%d\n", m.name, v.v, m.unit, v.n)
	}
	flag := ""
	if r.noisy() {
		flag = " (moved by more than a tenth: noisy run)"
	}
	fmt.Fprintf(w, "  host canary %.1f ms before, %.1f ms after%s\n", r.spinBefore, r.spinAfter, flag)
	fmt.Fprintf(w, "  attempted %d, failed %d\n", r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}
