// Command bpush-inspect prints the layout of a becast under a given
// configuration — control segment, data segment, overflow buckets — and
// the analytic broadcast-size accounting of §3 for every method.
//
// Usage:
//
//	bpush-inspect -db 20 -versions 3 -updates 4 -cycles 5
//	bpush-inspect -sizing -updates 50 -span 3
//	bpush-inspect trace run.jsonl
//	bpush-inspect lag metricsz.json
//
// The trace subcommand renders a JSONL event trace (written by the obs
// package's JSONL sink, e.g. via bpush-sim -trace): per-method summaries,
// read-source and abort breakdowns, span/latency quantiles, and an abort
// timeline. The lag subcommand renders the cross-tier latency and
// staleness attribution from a /metricsz snapshot saved off a sampled
// station (bpush-cast -http -sample) or from a JSONL trace.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"bpush/internal/broadcast"
	"bpush/internal/cyclesource"
	"bpush/internal/stats"
	"bpush/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bpush-inspect:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) > 0 {
		switch args[0] {
		case "trace":
			return runTrace(args[1:], out)
		case "lag":
			return runLag(args[1:], out)
		}
	}
	fs := flag.NewFlagSet("bpush-inspect", flag.ContinueOnError)
	var (
		dbSize   = fs.Int("db", 20, "broadcast size D in items")
		versions = fs.Int("versions", 3, "versions kept on air (S)")
		updates  = fs.Int("updates", 4, "updates per cycle")
		cycles   = fs.Int("cycles", 5, "cycles to simulate before inspecting")
		seed     = fs.Int64("seed", 1, "workload seed")
		sizing   = fs.Bool("sizing", false, "print the analytic size accounting instead of a layout")
		span     = fs.Int("span", 3, "span for the size accounting")
		u        = fs.Int("u", 50, "updates per cycle for the size accounting")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sizing {
		return printSizing(out, *u, *span)
	}
	if *cycles < 0 {
		return fmt.Errorf("-cycles must be non-negative, got %d", *cycles)
	}
	return printLayout(out, *dbSize, *versions, *updates, *cycles, *seed)
}

func printSizing(out io.Writer, u, span int) error {
	p := broadcast.DefaultSizeParams()
	p.U = u
	p.S = span
	p.C = 5 * u / p.N
	fmt.Fprintf(out, "size accounting at D=%d, U=%d, span=%d, N=%d (units: key=1, record=%g, bucket=%g)\n\n",
		p.D, p.U, p.S, p.N, p.Key+p.Data, p.Bucket)
	t := stats.NewTable("method", "overhead (units)", "overhead (buckets)", "% of broadcast")
	for _, m := range []broadcast.Method{
		broadcast.MethodInvOnly,
		broadcast.MethodMVClustered,
		broadcast.MethodMVOverflow,
		broadcast.MethodSGT,
		broadcast.MethodMVCache,
	} {
		units, err := p.OverheadUnits(m)
		if err != nil {
			return err
		}
		buckets, err := p.OverheadBuckets(m)
		if err != nil {
			return err
		}
		pct, err := p.PercentIncrease(m)
		if err != nil {
			return err
		}
		t.AddRow(m.String(), fmt.Sprintf("%.1f", units), fmt.Sprintf("%.0f", buckets), fmt.Sprintf("%.2f%%", pct))
	}
	fmt.Fprint(out, t.String())
	return nil
}

// printLayout prints becast number cycles of the synthetic workload's
// stream, 0-based: cycles 0 is the initial load.
func printLayout(out io.Writer, dbSize, versions, updates, cycles int, seed int64) error {
	src, err := cyclesource.New(cyclesource.Config{
		DBSize:   dbSize,
		Versions: versions,
		Workload: workload.ServerConfig{
			DBSize:          dbSize,
			UpdateRange:     dbSize,
			Theta:           0.95,
			TxPerCycle:      2,
			UpdatesPerCycle: updates,
			ReadsPerUpdate:  2,
		},
		Seed: seed,
	})
	if err != nil {
		return err
	}
	b, err := src.Get(cycles)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "becast of %v: %d data slots + %d overflow slots, %d tx committed\n\n",
		b.Cycle, len(b.Entries), len(b.Overflow), b.NumCommitted)
	fmt.Fprintln(out, "invalidation report:")
	for _, e := range b.Report {
		fmt.Fprintf(out, "  %-8v first writer %v\n", e.Item, e.FirstWriter)
	}
	fmt.Fprintf(out, "\nSG delta: %d nodes, %d edges\n", len(b.Delta.Nodes), len(b.Delta.Edges))
	for _, e := range b.Delta.Edges {
		fmt.Fprintf(out, "  %v -> %v\n", e.From, e.To)
	}
	fmt.Fprintln(out, "\ndata segment:")
	for slot, e := range b.Entries {
		ovf := ""
		if e.Overflow >= 0 {
			ovf = fmt.Sprintf("  overflow@%d", e.Overflow)
		}
		fmt.Fprintf(out, "  slot %3d  %-8v v%-4d writer %-9v%s\n", slot, e.Item, e.Version.Cycle, e.Version.Writer, ovf)
	}
	if len(b.Overflow) > 0 {
		fmt.Fprintln(out, "\noverflow segment (older versions, newest first per item):")
		for i, ov := range b.Overflow {
			fmt.Fprintf(out, "  slot %3d  %-8v v%-4d writer %v\n", b.OverflowSlot(i), ov.Item, ov.Version.Cycle, ov.Version.Writer)
		}
	}
	return nil
}
