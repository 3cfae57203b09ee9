// Command bpush-cast runs a live broadcast station: a server database with
// a synthetic update workload whose becasts are pushed over TCP to any
// number of subscribers. Pair it with bpush-client or your own
// bpush.Tuner clients (ExampleNewStation in the bpush package shows one).
//
// Usage:
//
//	bpush-cast -addr 127.0.0.1:7475 -db 1000 -interval 200ms -versions 4
//
// With -http and -sample the station measures its own latency tiers into
// /metricsz; save that snapshot and render it with bpush-inspect lag. The
// fan-out cost at scale is measured by the repo benchmark (go run ./bench).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"bpush/internal/fault"
	"bpush/internal/netcast"
	"bpush/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bpush-cast:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	cfg, err := buildConfig(args)
	if err != nil {
		return err
	}
	st, err := netcast.NewStation(cfg)
	if err != nil {
		return err
	}
	defer func() { _ = st.Close() }()
	fmt.Printf("broadcasting %d items every %v on %s (S=%d)\n", cfg.DBSize, cfg.Interval, st.Addr(), cfg.Versions)
	if cfg.LogDir != "" {
		fmt.Printf("durable cycle log in %s: resuming at cycle %d\n", cfg.LogDir, st.Source().Produced()+1)
	}
	if a := st.MetricsAddr(); a != "" {
		fmt.Printf("metrics on http://%s/metricsz, status on http://%s/statusz, trace on http://%s/tracez\n", a, a, a)
	}
	fmt.Println("press Ctrl-C to stop")

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt)
	ticker := time.NewTicker(5 * time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-sigc:
			fmt.Println("\nshutting down")
			return nil
		case <-ticker.C:
			fmt.Printf("subscribers: %d\n", st.Subscribers())
		}
	}
}

// buildConfig parses the flags into a station configuration.
func buildConfig(args []string) (netcast.StationConfig, error) {
	fs := flag.NewFlagSet("bpush-cast", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:7475", "listen address")
		dbSize    = fs.Int("db", 1000, "broadcast size D in items")
		versions  = fs.Int("versions", 1, "versions kept on air (S)")
		updRange  = fs.Int("update-range", 500, "update distribution range")
		offset    = fs.Int("offset", 100, "update pattern offset")
		theta     = fs.Float64("theta", 0.95, "Zipf skew")
		serverTx  = fs.Int("server-tx", 10, "server transactions per cycle")
		updates   = fs.Int("updates", 50, "updates per cycle")
		workers   = fs.Int("workers", 1, "server commit-pipeline workers (plan/place/execute; stream is identical at any count)")
		interval  = fs.Duration("interval", 500*time.Millisecond, "time per broadcast cycle")
		seed      = fs.Int64("seed", 1, "workload seed")
		faultSpec = fs.String("fault", "none", "channel-side fault plan: none, a named plan, or a spec like drop=0.05,corrupt=0.01")
		faultSeed = fs.Int64("fault-seed", 0, "fault RNG seed (0 = derive from the workload seed)")
		httpAddr  = fs.String("http", "", "serve /metricsz, /statusz, and /tracez on this address (empty = off)")
		logDir    = fs.String("log-dir", "", "durable cycle log directory: cycles are appended to disk and a restart resumes the same stream (empty = memory only)")
		memCycles = fs.Int("mem-cycles", 0, "with -log-dir: keep only the newest N cycles in memory, serving older ones from disk (0 = keep all)")
		snapEvery = fs.Int("snapshot-every", 0, "with -log-dir: append a producer snapshot every N cycles to bound restart replay (0 = default cadence, negative = disable)")
		sample    = fs.Bool("sample", false, "measure per-tier latency (restore/commit/encode/on-air/drain) into span.* histograms")
		stride    = fs.Int("sample-stride", 0, "sample every Nth subscriber for queue/drain lag (0 = default)")
		pprofFlag = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the -http address")

		shards       = fs.Int("shards", 0, "fan-out writer shards (0 = default)")
		queueLen     = fs.Int("queue", 0, "per-subscriber send-queue bound in frames; overflow evicts (0 = default)")
		writeTimeout = fs.Duration("write-timeout", 0, "per-subscriber frame write deadline (0 = default)")
	)
	if err := fs.Parse(args); err != nil {
		return netcast.StationConfig{}, err
	}
	plan, err := fault.ParsePlan(*faultSpec)
	if err != nil {
		return netcast.StationConfig{}, err
	}
	return netcast.StationConfig{
		Addr:     *addr,
		DBSize:   *dbSize,
		Versions: *versions,
		Workload: workload.ServerConfig{
			DBSize:          *dbSize,
			UpdateRange:     *updRange,
			Offset:          *offset,
			Theta:           *theta,
			TxPerCycle:      *serverTx,
			UpdatesPerCycle: *updates,
			ReadsPerUpdate:  4,
		},
		Interval:      *interval,
		Workers:       *workers,
		Seed:          *seed,
		Fault:         plan,
		FaultSeed:     *faultSeed,
		HTTPAddr:      *httpAddr,
		Sample:        *sample,
		SampleStride:  *stride,
		Pprof:         *pprofFlag,
		LogDir:        *logDir,
		MemCycles:     *memCycles,
		SnapshotEvery: *snapEvery,
		Cast: netcast.Config{
			Shards:       *shards,
			QueueLen:     *queueLen,
			WriteTimeout: *writeTimeout,
		},
	}, nil
}
