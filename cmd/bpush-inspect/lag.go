package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"bpush/internal/obs"
	"bpush/internal/stats"
)

// runLag implements the "lag" subcommand: the cross-tier latency and
// staleness attribution table. It accepts either artifact the product
// writes —
//
//   - a /metricsz snapshot saved with curl (or marshalled from
//     Station.Registry().Snapshot()),
//   - a JSONL event trace (bpush-sim -trace), whose staleness and span
//     events are folded locally.
//
// Histogram quantiles are recomputed exactly from the exported bucket
// layouts (stats.Histogram round-trips through the snapshot), so the
// offline table shows the same numbers the live /statusz page does.
func runLag(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bpush-inspect lag", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: bpush-inspect lag <metricsz.json | trace.jsonl>")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("lag: expected exactly one input file, got %d args", fs.NArg())
	}
	raw, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	if snap, ok := lagSnapshot(raw); ok {
		return renderLagSnapshot(out, snap)
	}
	events, err := obs.ReadJSONL(bytes.NewReader(raw))
	if err != nil {
		return fmt.Errorf("lag: %s is neither a metrics snapshot nor a JSONL trace: %w", fs.Arg(0), err)
	}
	return renderLagTrace(out, events)
}

// lagSnapshot extracts a registry snapshot from a /metricsz document
// (top-level "histograms").
func lagSnapshot(raw []byte) (obs.RegistrySnapshot, bool) {
	var doc struct {
		Histograms map[string]obs.HistogramSnapshot `json:"histograms"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.Histograms) == 0 {
		return obs.RegistrySnapshot{}, false
	}
	return obs.RegistrySnapshot{Histograms: doc.Histograms}, true
}

// renderLagSnapshot renders the attribution tables from a registry
// snapshot: the wall-clock tier table (with per-shard drain histograms
// merged into one tier), queue depth, and the per-scheme staleness.
func renderLagSnapshot(out io.Writer, snap obs.RegistrySnapshot) error {
	t := stats.NewTable("tier", "n", "p50", "p95", "p99", "max")
	rows := 0
	for _, tier := range obs.SpanTiers {
		h, err := tierHistogram(snap, tier)
		if err != nil {
			return err
		}
		if h == nil || h.N() == 0 {
			continue
		}
		t.AddRow(tier, h.N(),
			fmtDur(h.Quantile(0.50)), fmtDur(h.Quantile(0.95)), fmtDur(h.Quantile(0.99)), fmtDur(h.Max()))
		rows++
	}
	if rows == 0 {
		fmt.Fprintln(out, "no latency tiers in the snapshot (was the run sampled? bpush-cast -sample)")
	} else {
		fmt.Fprintln(out, "latency attribution (wall clock, per tier):")
		fmt.Fprint(out, t.String())
	}
	if qd, ok := snap.Histograms["net.queue_depth"]; ok && qd.Count > 0 {
		h, err := qd.Restore()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\nsubscriber queue depth (frames): n=%d p50=%.0f p95=%.0f p99=%.0f max=%.0f\n",
			h.N(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Max())
	}
	renderStalenessTable(out, snapStaleness(snap))
	return nil
}

// tierHistogram resolves one tier of the table: span.<tier>_ns for the
// directly-sampled tiers, and the merge of every net.shard.*.drain_ns
// histogram for the drain tier (the shards share one bucket layout, so
// the merge is exact).
func tierHistogram(snap obs.RegistrySnapshot, tier string) (*stats.Histogram, error) {
	if tier == obs.SpanDrain {
		var merged *stats.Histogram
		for name, hs := range snap.Histograms {
			if !strings.HasPrefix(name, "net.shard.") || !strings.HasSuffix(name, ".drain_ns") {
				continue
			}
			h, err := hs.Restore()
			if err != nil {
				return nil, fmt.Errorf("restore %s: %w", name, err)
			}
			if merged == nil {
				merged = h
			} else if err := merged.Merge(h); err != nil {
				return nil, fmt.Errorf("merge %s: %w", name, err)
			}
		}
		return merged, nil
	}
	hs, ok := snap.Histograms["span."+strings.ReplaceAll(tier, "-", "_")+"_ns"]
	if !ok {
		return nil, nil
	}
	h, err := hs.Restore()
	if err != nil {
		return nil, fmt.Errorf("restore tier %s: %w", tier, err)
	}
	return h, nil
}

// stalenessRow is one scheme's staleness summary, in cycles.
type stalenessRow struct {
	method         string
	age, span, lag *stats.Histogram
}

// snapStaleness restores the per-scheme staleness histograms from a
// registry snapshot.
func snapStaleness(snap obs.RegistrySnapshot) []stalenessRow {
	var rows []stalenessRow
	for _, m := range stalenessMethodNames(snap) {
		row := stalenessRow{method: m}
		if h, err := snap.Histograms["staleness."+m+".age_cycles"].Restore(); err == nil {
			row.age = h
		}
		if hs, ok := snap.Histograms["staleness."+m+".span_cycles"]; ok {
			if h, err := hs.Restore(); err == nil {
				row.span = h
			}
		}
		if hs, ok := snap.Histograms["staleness."+m+".lag_cycles"]; ok {
			if h, err := hs.Restore(); err == nil {
				row.lag = h
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// stalenessMethodNames lists the schemes with staleness histograms in
// the snapshot, sorted.
func stalenessMethodNames(snap obs.RegistrySnapshot) []string {
	var out []string
	for name := range snap.Histograms {
		if m, ok := strings.CutPrefix(name, "staleness."); ok {
			if m, ok := strings.CutSuffix(m, ".age_cycles"); ok {
				out = append(out, m)
			}
		}
	}
	sort.Strings(out)
	return out
}

// renderStalenessTable prints the per-scheme staleness table: version
// age at commit, commit-to-read span, and currency lag, all in cycles.
func renderStalenessTable(out io.Writer, rows []stalenessRow) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintln(out, "\nstaleness by scheme (cycles, per committed read):")
	t := stats.NewTable("method", "reads", "age p50", "age p95", "age p99", "age max", "span p95", "lag p95", "lag max")
	for _, r := range rows {
		if r.age == nil || r.age.N() == 0 {
			continue
		}
		spanP95, lagP95, lagMax := "-", "-", "-"
		if r.span != nil && r.span.N() > 0 {
			spanP95 = fmt.Sprintf("%.1f", r.span.Quantile(0.95))
		}
		if r.lag != nil && r.lag.N() > 0 {
			lagP95 = fmt.Sprintf("%.1f", r.lag.Quantile(0.95))
			lagMax = fmt.Sprintf("%.0f", r.lag.Max())
		}
		t.AddRow(r.method, r.age.N(),
			fmt.Sprintf("%.1f", r.age.Quantile(0.50)),
			fmt.Sprintf("%.1f", r.age.Quantile(0.95)),
			fmt.Sprintf("%.1f", r.age.Quantile(0.99)),
			fmt.Sprintf("%.0f", r.age.Max()),
			spanP95, lagP95, lagMax)
	}
	fmt.Fprint(out, t.String())
}

// stalenessCycleBounds and spanNsBounds mirror the live registry's
// bucket layouts, so trace-folded tables quantize the same way
// /metricsz does.
var stalenessCycleBounds = []float64{0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}

var spanNsBounds = []float64{
	1e3, 2.5e3, 5e3, 1e4, 2.5e4, 5e4, 1e5, 2.5e5, 5e5,
	1e6, 2.5e6, 5e6, 1e7, 2.5e7, 5e7, 1e8, 2.5e8, 5e8, 1e9, 5e9,
}

// renderLagTrace folds a JSONL event stream into the same attribution
// tables. Sim traces carry no wall-clock span events — their tiers are
// virtual (producer-phase, cycle-begin/end, commit) — so for traces the
// table is the per-scheme staleness view, plus any live span events the
// stream happens to carry.
func renderLagTrace(out io.Writer, events []obs.Event) error {
	type sh struct{ age, span, lag *stats.Histogram }
	mk := func() *stats.Histogram {
		h, err := stats.NewHistogram(stalenessCycleBounds)
		if err != nil {
			panic(err) // static bucket layout
		}
		return h
	}
	schemes := map[string]*sh{}
	var order []string
	spans := map[string]*stats.Histogram{}
	spanNs := func(tier string) *stats.Histogram {
		h, ok := spans[tier]
		if !ok {
			var err error
			if h, err = stats.NewHistogram(spanNsBounds); err != nil {
				panic(err) // static bucket layout
			}
			spans[tier] = h
		}
		return h
	}
	for _, e := range events {
		switch e.Type {
		case obs.TypeStaleness:
			s, ok := schemes[e.Method]
			if !ok {
				s = &sh{age: mk(), span: mk(), lag: mk()}
				schemes[e.Method] = s
				order = append(order, e.Method)
			}
			s.age.Add(float64(e.Cycles))
			s.span.Add(float64(e.Span))
			s.lag.Add(float64(e.N))
		case obs.TypeSpan:
			spanNs(e.Reason).Add(float64(e.N))
		}
	}
	if len(schemes) == 0 && len(spans) == 0 {
		return fmt.Errorf("lag: trace carries no staleness or span events (recorded before this scheme emitted them?)")
	}
	if len(spans) > 0 {
		fmt.Fprintln(out, "latency attribution (wall clock, per tier):")
		t := stats.NewTable("tier", "n", "p50", "p95", "p99", "max")
		for _, tier := range obs.SpanTiers {
			h, ok := spans[tier]
			if !ok || h.N() == 0 {
				continue
			}
			t.AddRow(tier, h.N(),
				fmtDur(h.Quantile(0.50)), fmtDur(h.Quantile(0.95)), fmtDur(h.Quantile(0.99)), fmtDur(h.Max()))
		}
		fmt.Fprint(out, t.String())
	}
	sort.Strings(order)
	var rows []stalenessRow
	for _, m := range order {
		s := schemes[m]
		rows = append(rows, stalenessRow{method: m, age: s.age, span: s.span, lag: s.lag})
	}
	renderStalenessTable(out, rows)
	return nil
}

// fmtDur renders a nanosecond quantity with an adaptive unit.
func fmtDur(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}
