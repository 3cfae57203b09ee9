// Command bpush-sim runs a single simulation of the §5.1 performance model
// and prints the resulting metrics.
//
// Usage:
//
//	bpush-sim -scheme sgt -cache 100 -ops 10 -updates 50 -offset 100 -queries 2000
//	bpush-sim -scheme sgt -cache 100 -clients 16 -parallel 0   # 16-client fleet, one shared stream
//
// Schemes: inv-only, vcache, multiversion, mv-cache, sgt. With -clients > 1
// the broadcast cycles are produced once and replayed to every client; the
// clients run on a -parallel worker pool (0 = one worker per CPU) with
// results identical to a serial run.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"

	"bpush/internal/core"
	"bpush/internal/fault"
	"bpush/internal/obs"
	"bpush/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bpush-sim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bpush-sim", flag.ContinueOnError)
	var (
		schemeName = fs.String("scheme", "inv-only", "scheme: inv-only | vcache | multiversion | mv-cache | sgt")
		cacheSize  = fs.Int("cache", 0, "client cache size in pages (0 = no cache)")
		granule    = fs.Int("granularity", 1, "invalidation-report granularity in items per bucket")
		dbSize     = fs.Int("db", 1000, "broadcast size D in items")
		updRange   = fs.Int("update-range", 500, "update distribution range")
		offset     = fs.Int("offset", 100, "update vs. client-read pattern offset")
		theta      = fs.Float64("theta", 0.95, "Zipf skew parameter")
		serverTx   = fs.Int("server-tx", 10, "server transactions per cycle (N)")
		updates    = fs.Int("updates", 50, "updates per cycle (U)")
		versions   = fs.Int("versions", 1, "versions the server keeps on air (S)")
		readRange  = fs.Int("read-range", 1000, "client read range")
		ops        = fs.Int("ops", 10, "read operations per query")
		think      = fs.Int("think", 2, "think time in broadcast slots")
		disconnect = fs.Float64("disconnect", 0, "per-cycle disconnection probability")
		queries    = fs.Int("queries", 2000, "measured queries")
		warmup     = fs.Int("warmup", 100, "warmup queries")
		seed       = fs.Int64("seed", 1, "random seed")
		check      = fs.Bool("check", false, "run the consistency oracle on every commit")
		diskHot    = fs.Int("disk-hot", 0, "broadcast-disk: size of the hot partition (0 = flat broadcast)")
		diskFreq   = fs.Int("disk-freq", 0, "broadcast-disk: relative frequency of the hot disk")
		intervals  = fs.Int("intervals", 1, "h-interval organization: reports (and chunks) per broadcast period")
		clients    = fs.Int("clients", 1, "fleet size: clients sharing one broadcast stream")
		parallel   = fs.Int("parallel", 0, "fleet worker-pool size (0 = one per CPU, 1 = serial)")
		prodW      = fs.Int("producer-workers", 1, "server commit-pipeline workers (plan/place/execute; results are identical at any count)")
		faultSpec  = fs.String("fault", "none", "fault plan: none | "+faultNames()+" | spec like drop=0.05,corrupt=0.01")
		faultSeed  = fs.Int64("fault-seed", 0, "fault RNG seed (0 = derive from the client seed)")
		logDir     = fs.String("log-dir", "", "durable cycle log directory: the produced stream is appended to disk and a later run over the same directory resumes it (empty = memory only)")
		memCycles  = fs.Int("mem-cycles", 0, "with -log-dir: keep only the newest N cycles in memory, serving older ones from disk (0 = keep all)")
		snapEvery  = fs.Int("snapshot-every", 0, "with -log-dir: producer snapshot cadence in cycles (0 = default, negative = disable)")
		tracePath  = fs.String("trace", "", "write the run's JSONL event trace to this file (inspect with: bpush-inspect trace)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	kind, err := core.ParseKind(*schemeName)
	if err != nil {
		return err
	}
	plan, err := fault.ParsePlan(*faultSpec)
	if err != nil {
		return err
	}
	cfg := sim.DefaultConfig()
	cfg.DBSize = *dbSize
	cfg.UpdateRange = *updRange
	cfg.Offset = *offset
	cfg.Theta = *theta
	cfg.ServerTx = *serverTx
	cfg.Updates = *updates
	cfg.ServerVersions = *versions
	cfg.ReadRange = *readRange
	cfg.OpsPerQuery = *ops
	cfg.ThinkTime = *think
	cfg.DisconnectProb = *disconnect
	cfg.Queries = *queries
	cfg.Warmup = *warmup
	cfg.Seed = *seed
	cfg.Check = *check
	cfg.DiskHot = *diskHot
	cfg.DiskFreq = *diskFreq
	cfg.Intervals = *intervals
	cfg.Scheme = core.Options{Kind: kind, CacheSize: *cacheSize, BucketGranularity: *granule}
	cfg.Parallel = *parallel
	cfg.ProducerWorkers = *prodW
	cfg.Fault = plan
	cfg.FaultSeed = *faultSeed
	cfg.LogDir = *logDir
	cfg.MemCycles = *memCycles
	cfg.SnapshotEvery = *snapEvery

	// The trace is assembled deterministically: the producer stream first,
	// then each client's stream in index order. Per-client recorders keep a
	// parallel fleet's trace identical to a serial one.
	var tr *traceCapture
	if *tracePath != "" {
		tr = newTraceCapture(*clients)
		cfg.SourceRecorder = tr.source()
		if *clients > 1 {
			cfg.RecorderFor = tr.client
		} else {
			cfg.Recorder = tr.client(0)
		}
	}
	flush := func() error {
		if tr == nil {
			return nil
		}
		if err := tr.writeFile(*tracePath); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace             %s (producer + %d client stream(s))\n", *tracePath, *clients)
		return nil
	}

	if *clients > 1 {
		fm, err := sim.RunFleet(cfg, *clients)
		if err != nil {
			return err
		}
		var nq, committed, aborted, checked, skipped int
		for _, m := range fm.PerClient {
			nq += m.Queries
			committed += m.Committed
			aborted += m.Aborted
			checked += m.OracleChecked
			skipped += m.OracleSkipped
		}
		fmt.Fprintf(out, "scheme            %s\n", fm.PerClient[0].SchemeName)
		fmt.Fprintf(out, "clients           %d\n", fm.Clients)
		fmt.Fprintf(out, "queries           %d (%d committed, %d aborted)\n", nq, committed, aborted)
		fmt.Fprintf(out, "mean abort rate   %.4f (std %.4f)\n", fm.MeanAbortRate, fm.StdAbortRate)
		fmt.Fprintf(out, "mean latency      %.3f cycles (std %.3f)\n", fm.MeanLatency, fm.StdLatency)
		fmt.Fprintf(out, "server cycles     %d (produced once, shared by all clients)\n", fm.ServerCycles)
		if *check {
			fmt.Fprintf(out, "oracle            %d commits checked, %d outside window\n", checked, skipped)
		}
		return flush()
	}

	m, err := sim.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "scheme            %s\n", m.SchemeName)
	fmt.Fprintf(out, "queries           %d (%d committed, %d aborted)\n", m.Queries, m.Committed, m.Aborted)
	fmt.Fprintf(out, "abort rate        %.4f\n", m.AbortRate)
	fmt.Fprintf(out, "accept rate       %.4f\n", m.AcceptRate)
	fmt.Fprintf(out, "latency           %.3f cycles (committed queries)\n", m.MeanLatency)
	fmt.Fprintf(out, "span              %.3f cycles\n", m.MeanSpan)
	fmt.Fprintf(out, "cache hit rate    %.4f\n", m.CacheHitRate)
	fmt.Fprintf(out, "overflow reads    %.4f of reads\n", m.OverflowReadRate)
	fmt.Fprintf(out, "becast length     %.1f slots\n", m.MeanBcastSlots)
	fmt.Fprintf(out, "cycles simulated  %d\n", m.Cycles)
	if !plan.IsZero() {
		fmt.Fprintf(out, "fault plan        %s\n", plan)
		fmt.Fprintf(out, "cycles lost       %d (stale frames discarded: %d)\n", m.MissedCycles, m.StaleFrames)
	}
	if *check {
		fmt.Fprintf(out, "oracle            %d commits checked, %d outside window\n", m.OracleChecked, m.OracleSkipped)
	}
	return flush()
}

// traceCapture buffers the producer's and every client's JSONL stream
// separately so the assembled file does not depend on fleet scheduling.
type traceCapture struct {
	sbuf bytes.Buffer
	sw   *obs.JSONL
	bufs []bytes.Buffer
	recs []*obs.JSONL
}

func newTraceCapture(clients int) *traceCapture {
	t := &traceCapture{bufs: make([]bytes.Buffer, clients), recs: make([]*obs.JSONL, clients)}
	t.sw = obs.NewJSONL(&t.sbuf)
	for i := range t.recs {
		t.recs[i] = obs.NewJSONL(&t.bufs[i])
	}
	return t
}

func (t *traceCapture) source() obs.Recorder { return t.sw }

// client hands out the pre-built recorder for one fleet client; safe to
// call from pool workers.
func (t *traceCapture) client(i int) obs.Recorder { return t.recs[i] }

func (t *traceCapture) writeFile(path string) error {
	if err := t.sw.Err(); err != nil {
		return fmt.Errorf("trace: producer stream: %w", err)
	}
	var all bytes.Buffer
	all.Write(t.sbuf.Bytes())
	for i := range t.recs {
		if err := t.recs[i].Err(); err != nil {
			return fmt.Errorf("trace: client %d stream: %w", i, err)
		}
		all.Write(t.bufs[i].Bytes())
	}
	return os.WriteFile(path, all.Bytes(), 0o644)
}

// faultNames lists the shipped fault plans for the flag help text.
func faultNames() string {
	names := fault.PlanNames()
	out := ""
	for i, n := range names {
		if i > 0 {
			out += " | "
		}
		out += n
	}
	return out
}
