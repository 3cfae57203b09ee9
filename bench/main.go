// Command bench is the repository's benchmark: one program that runs four
// workloads through the whole chain — update transactions commit at the
// station, the cycle goes on air, clients hear it, read-only transactions
// commit — verifies the outputs, and prints every metric by name.
//
//	go run ./bench -seed 1                 every workload, end to end
//	go run ./bench -seed 1 -trace          the traced run: per-layer metrics and spans
//	go run ./bench -compare A.json B.json  two result sets against the bounds
//	go run ./bench --workload W --seed N --seconds S --trace 0|1
//	                                       one run, result as the last line (BENCHMARK.json's command)
//
// See README.md in this directory for what each metric means and which
// layer should move it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errWorse is returned by -compare when a metric regressed.
var errWorse = errors.New("at least one metric is worse than its bound allows")

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run only this workload, once, and print the result object as the last line")
		seed    = fs.Int64("seed", 1, "workload seed: server seed, clients derive theirs from it")
		seconds = fs.Float64("seconds", 0, "bound the measured phase by time instead of the profile's cycle count")
		trace   = fs.Bool("trace", false, "traced run: per-layer metrics and spans")
		prof    = fs.String("profile", "full", "sizing: full or smoke")
		runs    = fs.Int("runs", 3, "runs per workload when running every workload")
		out     = fs.String("out", "", "write the result set (medians, quartiles, n, bounds, environment) to this file")
		spans   = fs.String("spans", "", "directory for the traced run's span files (default: the temp root, when running every workload)")
		tmp     = fs.String("tmp", ".bench_tmp", "root for the runs' log directories; each run removes its own")
		compare = fs.Bool("compare", false, "compare two result sets: bench -compare A.json B.json")
	)
	if err := fs.Parse(joinTraceValue(args)); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare needs two result files")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout)
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	p, ok := profiles[*prof]
	if !ok {
		return fmt.Errorf("unknown profile %q", *prof)
	}
	procs := setProcs()
	o := runOptions{seed: *seed, prof: p, seconds: *seconds, trace: *trace, tmpRoot: *tmp, now: newClock(), log: stderr}

	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		fmt.Fprintf(stderr, "bench: %s seed %d, GOMAXPROCS %d\n", w.name, o.seed, procs)
		res, err := runWorkload(w, o)
		if err != nil {
			return err
		}
		res.print(stderr)
		if err := res.check(); err != nil {
			return err
		}
		if res.failed > 0 {
			return fmt.Errorf("%s: verification failed: %s", w.name, strings.Join(res.failures, "; "))
		}
		if *spans != "" {
			if err := saveSpans(*spans, res); err != nil {
				return err
			}
		}
		return json.NewEncoder(stdout).Encode(res.object())
	}

	if *spans == "" {
		*spans = *tmp
	}
	return runSuite(o, *runs, *out, *spans, stdout)
}

// joinTraceValue lets -trace be given both bare (a boolean flag) and with
// a separate value (--trace 0, --trace 1), which package flag would
// otherwise read as a positional argument.
func joinTraceValue(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			switch args[i+1] {
			case "0", "1", "true", "false":
				a += "=" + args[i+1]
				i++
			}
		}
		out = append(out, a)
	}
	return out
}

// runWorkload runs one workload once. A traced live run is two runs: a
// short untraced reference with the same inputs, then the traced one;
// the difference in cycle rate is the tracing overhead.
func runWorkload(w workloadSpec, o runOptions) (*result, error) {
	if o.trace {
		// The traced run measures a quarter of the cycles.
		o.prof.cycleDiv *= 4
		o.prof.fleetRounds = (o.prof.fleetRounds + 3) / 4
	}
	if w.fleet {
		res, err := runFleetWorkload(w, o)
		if err == nil && o.trace {
			setHostLayers(res)
		}
		return res, err
	}
	if !o.trace {
		return runLive(w, o)
	}
	ref := o
	ref.trace = false
	ref.prof.setups, ref.prof.restarts = 1, 1
	ref.seconds = o.seconds / 4
	o.seconds -= ref.seconds
	base, err := runLive(w, ref)
	if err != nil {
		return nil, fmt.Errorf("untraced reference: %w", err)
	}
	res, err := runLive(w, o)
	if err != nil {
		return nil, err
	}
	res.failed += base.failed
	res.failures = append(res.failures, base.failures...)
	res.set("trace.overhead_pct", 100*ratio(base.cyclesPerS-res.cyclesPerS, base.cyclesPerS), int(res.exact.cycles))
	fmt.Fprintf(o.log, "  tracing overhead: %.1f cycles/s untraced, %.1f traced (%.1f%%)\n",
		base.cyclesPerS, res.cyclesPerS, res.get("trace.overhead_pct"))
	setHostLayers(res)
	return res, nil
}

// setHostLayers records the host canary among the per-layer metrics.
func setHostLayers(res *result) {
	res.set("host.spin_ms_before", res.spinBefore, 1)
	res.set("host.spin_ms_after", res.spinAfter, 1)
	noisy := 0.0
	if res.noisy() {
		noisy = 1
	}
	res.set("host.noisy_runs", noisy, 1)
}

// object is the result line BENCHMARK.json's command prints.
func (r *result) object() map[string]any {
	metrics := map[string]any{}
	for _, m := range r.catalogue() {
		metrics[m.name] = map[string]any{"value": r.vals[m.name].v, "unit": m.unit}
	}
	return map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	}
}

func saveSpans(dir string, res *result) error {
	if len(res.spans) == 0 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return writeSpans(filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", res.workload, res.seed)), res.spans)
}
