package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// resultSet is the document -out writes and -compare reads.
type resultSet struct {
	Environment environment            `json:"environment"`
	NoisyRuns   int                    `json:"noisy_runs"`
	Workloads   map[string]workloadSet `json:"workloads"`
}

type workloadSet struct {
	// Samples are the exact counts behind the metrics, one per run.
	Samples map[string][]int64   `json:"samples"`
	Metrics map[string]metricSet `json:"metrics"`
}

type metricSet struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound,omitempty"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"` // samples behind one run's value (cycles, calls, queries)
	Values []float64 `json:"values"`
}

// runSuite runs every workload, prints every metric by name with its
// unit, and writes the result set when asked. Untraced, each workload runs
// `runs` times on the same seed; traced, once.
func runSuite(o runOptions, runs int, out, spanDir string, stdout io.Writer) error {
	if runs < 1 || o.trace {
		runs = 1
	}
	if err := os.MkdirAll(o.tmpRoot, 0o755); err != nil {
		return err
	}
	set := resultSet{
		Environment: readEnvironment(o.tmpRoot, o.seed, o.prof.name, runs),
		Workloads:   map[string]workloadSet{},
	}
	catalogue := endToEnd
	if o.trace {
		catalogue = perLayer
	}
	for _, w := range workloads {
		var results []*result
		for i := 0; i < runs; i++ {
			fmt.Fprintf(o.log, "bench: %s run %d/%d, seed %d\n", w.name, i+1, runs, o.seed)
			res, err := runWorkload(w, o)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if err := res.check(); err != nil {
				return err
			}
			if res.failed > 0 {
				res.print(o.log)
				return fmt.Errorf("%s: verification failed, no results written: %s", w.name, strings.Join(res.failures, "; "))
			}
			if res.noisy() {
				set.NoisyRuns++
				fmt.Fprintf(o.log, "bench: %s run %d kept but flagged: host canary moved from %.1f ms to %.1f ms\n", w.name, i+1, res.spinBefore, res.spinAfter)
			}
			if err := saveSpans(spanDir, res); err != nil {
				return err
			}
			results = append(results, res)
		}
		ws := workloadSet{Samples: map[string][]int64{}, Metrics: map[string]metricSet{}}
		for _, r := range results {
			ws.Samples["cycles"] = append(ws.Samples["cycles"], r.exact.cycles)
			ws.Samples["queries"] = append(ws.Samples["queries"], r.exact.queries)
			ws.Samples["aborted"] = append(ws.Samples["aborted"], r.exact.aborted)
			ws.Samples["attempted"] = append(ws.Samples["attempted"], r.attempted)
			ws.Samples["failed"] = append(ws.Samples["failed"], r.failed)
		}
		fmt.Fprintf(stdout, "\n%s  (seed %d, %d run(s), %d cycles, %d queries, failed %d of %d)\n",
			w.name, o.seed, runs, results[0].exact.cycles, results[0].exact.queries, results[0].failed, results[0].attempted)
		fmt.Fprintf(stdout, "  %-34s %14s %14s %14s  %-8s %s\n", "metric", "median", "q1", "q3", "unit", "bound")
		for _, m := range catalogue {
			ms := metricSet{Unit: m.unit, Better: m.better, Bound: m.bound, N: results[0].vals[m.name].n}
			for _, r := range results {
				ms.Values = append(ms.Values, r.vals[m.name].v)
			}
			ms.Q1, ms.Median, ms.Q3 = quartiles(ms.Values)
			ws.Metrics[m.name] = ms
			bound := ""
			if m.bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*m.bound)
			}
			fmt.Fprintf(stdout, "  %-34s %14.6g %14.6g %14.6g  %-8s %s\n", m.name, ms.Median, ms.Q1, ms.Q3, m.unit, bound)
		}
		set.Workloads[w.name] = ws
	}
	if out == "" {
		return nil
	}
	data, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(data, '\n'), 0o644)
}
