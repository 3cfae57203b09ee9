package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func smokeOptions(t *testing.T, seed int64, trace bool) runOptions {
	t.Helper()
	return runOptions{seed: seed, prof: profiles["smoke"], trace: trace, tmpRoot: t.TempDir(), now: newClock(), log: io.Discard}
}

func mustRun(t *testing.T, w workloadSpec, o runOptions) *result {
	t.Helper()
	res, err := runWorkload(w, o)
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", w.name, o.seed, o.trace, err)
	}
	if err := res.check(); err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 || res.attempted < 1 {
		t.Fatalf("%s seed %d trace %v: failed %d of %d: %v", w.name, o.seed, o.trace, res.failed, res.attempted, res.failures)
	}
	return res
}

// TestSmoke runs every workload at the smoke size — restart phase,
// verification pass and traced run included — and pins what must hold on
// any host: every declared name is emitted with a finite value, and the
// exact metrics are a pure function of the seed.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel() // nothing here asserts a time, and most of a smoke run is fsync waits
			a := mustRun(t, w, smokeOptions(t, 1, false))
			b := mustRun(t, w, smokeOptions(t, 1, false))
			c := mustRun(t, w, smokeOptions(t, 2, false))
			if a.exact != b.exact {
				t.Errorf("two runs of seed 1 disagree: %+v vs %+v", a.exact, b.exact)
			}
			for _, name := range []string{"abort_rate", "frame_bytes"} {
				if a.get(name) != b.get(name) {
					t.Errorf("%s is not exact for one seed: %v vs %v", name, a.get(name), b.get(name))
				}
			}
			if a.exact == c.exact {
				t.Errorf("seeds 1 and 2 gave the same counts %+v: the seed does not reach the inputs", a.exact)
			}
			if a.exact.queries == 0 || a.exact.cycles == 0 || a.exact.frameBytes == 0 {
				t.Errorf("empty run: %+v", a.exact)
			}
			for _, m := range endToEnd {
				if a.get(m.name) <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.name, a.get(m.name))
				}
			}

			tr := mustRun(t, w, smokeOptions(t, 1, true))
			if len(tr.spans) == 0 {
				t.Fatal("traced run recorded no spans")
			}
			var spans int
			for _, buf := range tr.spans {
				spans += len(buf.spans)
			}
			path := filepath.Join(t.TempDir(), "spans.jsonl")
			if err := writeSpans(path, tr.spans); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
			if len(lines) != spans {
				t.Fatalf("span file has %d lines, want %d", len(lines), spans)
			}
			var first struct {
				Name    string `json:"name"`
				StartNs *int64 `json:"start_ns"`
				EndNs   *int64 `json:"end_ns"`
				Parent  *int64 `json:"parent"`
				Cycle   *int64 `json:"cycle"`
			}
			if err := json.Unmarshal(lines[0], &first); err != nil {
				t.Fatal(err)
			}
			if first.Name == "" || first.StartNs == nil || first.EndNs == nil || first.Parent == nil || first.Cycle == nil {
				t.Errorf("span line lacks a field: %s", lines[0])
			}
			// Layers the workload exercises must read non-zero.
			exercised := []string{"core.sgt.newcycle_us", "client.query_us", "cache.hit_share", "runtime.alloc_kb_per_cycle", "host.spin_ms_before"}
			if w.fleet {
				exercised = append(exercised, "sim.sgt.fleet_ms", "sim.server_cycles", "pool.fleet_speedup", "cyclesource.get_us")
			} else {
				exercised = append(exercised, "server.commit_us", "wire.encode_us", "wire.decode_allocs", "durlog.append_us",
					"durlog.open_us", "durlog.read_us", "cyclesource.resume_us", "netcast.tick_us", "netcast.subscribe_us", "wire.frame_bytes")
			}
			if w.name == "fanout-wide" { // no sgt client there
				exercised[0] = "core.invonly.newcycle_us"
			}
			for _, name := range exercised {
				if tr.get(name) <= 0 {
					t.Errorf("per-layer metric %s = %v, want > 0", name, tr.get(name))
				}
			}
		})
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the names
// the binary emits from drifting apart.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jm `json:"end_to_end"`
		PerLayer []jm `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the binary", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the binary %q (%q)", i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	compare := func(kind string, got []jm, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d names in BENCHMARK.json, %d in the binary", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the binary %+v", kind, i, g, m)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != m.bound || m.bound <= 0 || m.bound > 0.25)) {
				t.Errorf("%s %s: bound in BENCHMARK.json %v, in the binary %v", kind, m.name, g.Bound, m.bound)
			}
			if seen[m.name] {
				t.Errorf("%s %s declared twice", kind, m.name)
			}
			seen[m.name] = true
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd, true)
	compare("per_layer", doc.PerLayer, perLayer, false)
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end names exceed the schema's limits", len(perLayer), len(endToEnd))
	}
}

// TestCommandLine drives the benchmark the way BENCHMARK.json's command
// is run: one workload, time-bounded, result object on the last line.
func TestCommandLine(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "fanout-wide", "--seed", "7", "--seconds", "0.2", "--trace", trace, "-profile", "smoke", "-tmp", t.TempDir()}
		if err := run(args, &stdout, &stderr); err != nil {
			t.Fatalf("trace %s: %v\n%s", trace, err, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var obj struct {
			Correct   *bool `json:"correct"`
			Attempted int64 `json:"attempted"`
			Failed    int64 `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&obj); err != nil {
			t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
		}
		want := endToEnd
		if trace == "1" {
			want = perLayer
		}
		if obj.Correct == nil || !*obj.Correct || obj.Attempted < 1 || obj.Failed != 0 || len(obj.Metrics) != len(want) {
			t.Fatalf("trace %s: bad result object: %s", trace, lines[len(lines)-1])
		}
		for _, m := range want {
			got, ok := obj.Metrics[m.name]
			if !ok || got.Value == nil || got.Unit != m.unit || math.IsNaN(*got.Value) {
				t.Errorf("trace %s: metric %s = %+v, want a value in %s", trace, m.name, got, m.unit)
			}
		}
	}
	if err := run([]string{"--workload", "no-such"}, io.Discard, io.Discard); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestJoinTraceValue(t *testing.T) {
	for _, c := range []struct{ in, want []string }{
		{[]string{"--trace", "1", "--seed", "3"}, []string{"--trace=1", "--seed", "3"}},
		{[]string{"-trace", "0"}, []string{"-trace=0"}},
		{[]string{"-seed", "1", "-trace"}, []string{"-seed", "1", "-trace"}},
		{[]string{"-trace", "-seed", "1"}, []string{"-trace", "-seed", "1"}},
	} {
		if got := joinTraceValue(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("joinTraceValue(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles(1..3) = %v %v %v, want 1 2 3", q1, q2, q3)
	}
}

// TestCompare covers the three verdicts and the exit status of -compare.
func TestCompare(t *testing.T) {
	lower := metric{name: "heard_ms_p50", unit: "ms", better: "lower", bound: 0.10}
	higher := metric{name: "cycles_per_s", unit: "1/s", better: "higher", bound: 0.10}
	set := func(vals ...float64) metricSet {
		ms := metricSet{Values: vals}
		ms.Q1, ms.Median, ms.Q3 = quartiles(vals)
		return ms
	}
	for _, c := range []struct {
		name string
		m    metric
		a, b metricSet
		want string
	}{
		{"same", lower, set(5, 5.01, 5.02), set(5.01, 5, 5.02), "ok"},
		{"slower beyond bound", lower, set(5, 5.01, 5.02), set(6, 6.01, 6.02), "worse"},
		{"faster", lower, set(5, 5.01, 5.02), set(4, 4.01, 4.02), "ok"},
		{"rate dropped", higher, set(200, 201, 202), set(150, 151, 152), "worse"},
		{"rate rose", higher, set(200, 201, 202), set(250, 251, 252), "ok"},
		{"wide and interleaved", lower, set(4, 5, 6), set(4.5, 5.5, 6.5), "unresolved"},
		{"wide but apart", lower, set(4, 5, 6), set(8, 9, 10), "worse"},
	} {
		if got, _ := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}

	write := func(scale float64) string {
		rs := resultSet{Workloads: map[string]workloadSet{}}
		for _, w := range workloads {
			ws := workloadSet{Metrics: map[string]metricSet{}}
			for _, m := range endToEnd {
				v := 10.0
				if m.name == "heard_ms_p50" {
					v *= scale
				}
				ms := set(v, v*1.001, v*1.002)
				ms.Unit, ms.Better, ms.Bound = m.unit, m.better, m.bound
				ws.Metrics[m.name] = ms
			}
			rs.Workloads[w.name] = ws
		}
		data, err := json.Marshal(rs)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "set.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow := write(1), write(1), write(1.5)
	var out bytes.Buffer
	if err := run([]string{"-compare", base, same}, &out, io.Discard); err != nil {
		t.Errorf("equal sets: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := run([]string{"-compare", base, slow}, &out, io.Discard); err != errWorse {
		t.Errorf("slower set: err = %v, want errWorse\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "worse") || strings.Count(out.String(), "heard_ms_p50") != len(workloads) {
		t.Errorf("report lacks the rows:\n%s", out.String())
	}
}
