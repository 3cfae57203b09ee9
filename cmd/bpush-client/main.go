// Command bpush-client subscribes to a live broadcast station (see
// bpush-cast) and runs read-only transactions against the stream,
// printing each outcome. The client never sends a byte upstream.
//
// Usage:
//
//	bpush-client -addr 127.0.0.1:7475 -scheme sgt -cache 100 -ops 5 -queries 10
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"bpush/internal/client"
	"bpush/internal/core"
	"bpush/internal/netcast"
	"bpush/internal/zipf"

	"bpush/internal/model"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bpush-client:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bpush-client", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:7475", "station address")
		schemeName = fs.String("scheme", "sgt", "scheme: inv-only | vcache | multiversion | mv-cache | sgt")
		cacheSize  = fs.Int("cache", 100, "client cache size in pages")
		ops        = fs.Int("ops", 5, "read operations per query")
		queries    = fs.Int("queries", 10, "queries to run")
		think      = fs.Int("think", 2, "think time in broadcast slots")
		theta      = fs.Float64("theta", 0.95, "Zipf skew of the access pattern")
		seed       = fs.Int64("seed", 1, "query workload seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	kind, err := core.ParseKind(*schemeName)
	if err != nil {
		return err
	}
	scheme, err := core.New(core.Options{Kind: kind, CacheSize: *cacheSize})
	if err != nil {
		return err
	}
	tuner, err := netcast.Dial(*addr)
	if err != nil {
		return err
	}
	defer tuner.Close()

	cl, err := client.New(scheme, tuner, client.Config{ThinkTime: *think})
	if err != nil {
		return err
	}
	// The first becast (already consumed by client.New) tells the client
	// how many items are on air; the query workload covers all of them.
	return runQueries(out, cl, *queries, *ops, *theta, *seed)
}

func runQueries(out io.Writer, cl *client.Client, queries, ops int, theta float64, seed int64) error {
	dist, err := zipf.New(zipf.Config{N: cl.Items(), Theta: theta})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	committed := 0
	for q := 0; q < queries; q++ {
		items := make([]model.ItemID, 0, ops)
		seen := make(map[model.ItemID]struct{}, ops)
		for len(items) < ops {
			it := model.ItemID(dist.Sample(rng))
			if _, dup := seen[it]; dup {
				continue
			}
			seen[it] = struct{}{}
			items = append(items, it)
		}
		res, err := cl.RunQuery(items)
		if err != nil {
			return err
		}
		if res.Committed {
			committed++
			fmt.Fprintf(out, "query %2d COMMIT  cycle=%d reads=%d cache=%d latency=%dc\n",
				q, res.Info.CommitCycle, res.Reads, res.CacheReads, res.LatencyCycles)
		} else {
			fmt.Fprintf(out, "query %2d ABORT   %s\n", q, res.AbortReason)
		}
	}
	fmt.Fprintf(out, "done: %d/%d committed (%s)\n", committed, queries, cl.Scheme().Name())
	return nil
}
