package bpush

// One benchmark per exhibit of the paper's evaluation section (§5), plus
// ablation benches for the design knobs called out in DESIGN.md. The
// figure benches regenerate the exhibit at a reduced per-point query count
// so `go test -bench=.` finishes in minutes; run cmd/bpush-exp for
// full-resolution sweeps. Custom metrics (abort rates, latencies) are
// attached with b.ReportMetric so the benchmark log doubles as a results
// table.

import (
	"math/rand"
	"testing"

	"bpush/internal/core"
	"bpush/internal/experiments"
	"bpush/internal/index"
	"bpush/internal/model"
	"bpush/internal/server"
	"bpush/internal/sim"
)

// benchOpts keeps figure regeneration affordable inside testing.B.
func benchOpts() experiments.Options {
	return experiments.Options{Queries: 120, Warmup: 30, Seed: 1, CacheSize: 100}
}

// reportEndpoints attaches each series' first and last y values, which is
// what one reads off the paper's plots.
func reportEndpoints(b *testing.B, fig *experiments.Figure) {
	b.Helper()
	for _, s := range fig.Series {
		if len(s.Y) == 0 {
			continue
		}
		b.ReportMetric(s.Y[0], s.Name+"_first")
		b.ReportMetric(s.Y[len(s.Y)-1], s.Name+"_last")
	}
}

// BenchmarkFig5Left regenerates Figure 5 (left): abort rate vs. operations
// per query for all schemes.
func BenchmarkFig5Left(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig5Left(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportEndpoints(b, fig)
		}
	}
}

// BenchmarkFig5Right regenerates Figure 5 (right): abort rate vs. offset.
func BenchmarkFig5Right(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig5Right(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportEndpoints(b, fig)
		}
	}
}

// BenchmarkFig6 regenerates Figure 6: abort rate vs. updates per cycle.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig6(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportEndpoints(b, fig)
		}
	}
}

// BenchmarkFig7 regenerates both panels of Figure 7 (analytic broadcast
// size accounting).
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		span, err := experiments.Fig7Span()
		if err != nil {
			b.Fatal(err)
		}
		ups, err := experiments.Fig7Updates()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportEndpoints(b, span)
			reportEndpoints(b, ups)
		}
	}
}

// BenchmarkFig8Left regenerates Figure 8 (left): latency vs. operations
// per query.
func BenchmarkFig8Left(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig8Left(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportEndpoints(b, fig)
		}
	}
}

// BenchmarkFig8Right regenerates Figure 8 (right): multiversion latency
// vs. offset.
func BenchmarkFig8Right(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig8Right(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportEndpoints(b, fig)
		}
	}
}

// BenchmarkTable1 regenerates Table 1 (comparison of the approaches).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches -------------------------------------------------

func benchSim(b *testing.B, mutate func(*sim.Config)) *sim.Metrics {
	b.Helper()
	cfg := sim.DefaultConfig()
	cfg.Queries = 250
	cfg.Warmup = 50
	mutate(&cfg)
	var last *sim.Metrics
	for i := 0; i < b.N; i++ {
		m, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = m
	}
	return last
}

// BenchmarkAblationCacheSize sweeps the client cache: more pages shrink
// span and abort rate for the invalidation-based schemes.
func BenchmarkAblationCacheSize(b *testing.B) {
	for _, size := range []int{0, 25, 50, 100, 200} {
		b.Run(itoa(size), func(b *testing.B) {
			m := benchSim(b, func(c *sim.Config) {
				c.Scheme = core.Options{Kind: core.KindInvOnly, CacheSize: size}
			})
			b.ReportMetric(m.AbortRate, "abort_rate")
			b.ReportMetric(m.CacheHitRate, "hit_rate")
		})
	}
}

// BenchmarkAblationBucketGranularity compares item- vs. bucket-granularity
// invalidation reports (§7): coarser reports cost extra (conservative)
// aborts but shrink the report.
func BenchmarkAblationBucketGranularity(b *testing.B) {
	for _, g := range []int{1, 5, 10, 25} {
		b.Run(itoa(g), func(b *testing.B) {
			m := benchSim(b, func(c *sim.Config) {
				c.Scheme = core.Options{Kind: core.KindInvOnly, BucketGranularity: g}
			})
			b.ReportMetric(m.AbortRate, "abort_rate")
		})
	}
}

// BenchmarkAblationChannelOldReads measures the beyond-the-paper extension
// that lets marked VCache transactions also read old-enough *broadcast*
// versions.
func BenchmarkAblationChannelOldReads(b *testing.B) {
	for _, on := range []bool{false, true} {
		name := "paper"
		if on {
			name = "extension"
		}
		b.Run(name, func(b *testing.B) {
			m := benchSim(b, func(c *sim.Config) {
				c.Scheme = core.Options{
					Kind: core.KindVCache, CacheSize: 100, AllowChannelOldReads: on,
				}
			})
			b.ReportMetric(m.AcceptRate, "accept_rate")
		})
	}
}

// BenchmarkAblationMVOldFraction sweeps the §4.2 cache split between
// current and old versions.
func BenchmarkAblationMVOldFraction(b *testing.B) {
	for _, frac := range []float64{0.25, 0.5, 0.75} {
		b.Run(ftoa(frac), func(b *testing.B) {
			m := benchSim(b, func(c *sim.Config) {
				c.Scheme = core.Options{
					Kind: core.KindMVCache, CacheSize: 100, OldFraction: frac,
				}
			})
			b.ReportMetric(m.AcceptRate, "accept_rate")
		})
	}
}

// BenchmarkAblationBroadcastDisk compares the flat organization against a
// 2-speed broadcast-disk program (§7 extension).
func BenchmarkAblationBroadcastDisk(b *testing.B) {
	type cfg struct {
		name     string
		hot, spd int
	}
	for _, c := range []cfg{{"flat", 0, 0}, {"disk80x4", 80, 4}} {
		b.Run(c.name, func(b *testing.B) {
			m := benchSim(b, func(s *sim.Config) {
				s.Scheme = core.Options{Kind: core.KindInvOnly}
				s.ReadRange = 200
				s.DiskHot = c.hot
				s.DiskFreq = c.spd
			})
			b.ReportMetric(m.MeanLatency, "latency_cycles")
			b.ReportMetric(m.MeanBcastSlots, "becast_slots")
		})
	}
}

// BenchmarkAblationServerVersions sweeps S for multiversion broadcast:
// fewer retained versions trade aborts for broadcast size.
func BenchmarkAblationServerVersions(b *testing.B) {
	for _, s := range []int{2, 4, 8, 16} {
		b.Run(itoa(s), func(b *testing.B) {
			m := benchSim(b, func(c *sim.Config) {
				c.Scheme = core.Options{Kind: core.KindMVBroadcast}
				c.ServerVersions = s
			})
			b.ReportMetric(m.AbortRate, "abort_rate")
			b.ReportMetric(m.MeanBcastSlots, "becast_slots")
		})
	}
}

// BenchmarkAblationIntervals sweeps the §7 h-interval organization: more
// intervals per period mean more frequent invalidation reports and
// fresher values (lower staleness in slots) at the cost of more control
// traffic and chunked item availability.
func BenchmarkAblationIntervals(b *testing.B) {
	for _, h := range []int{1, 2, 5, 10} {
		b.Run(itoa(h), func(b *testing.B) {
			m := benchSim(b, func(c *sim.Config) {
				// The versioned cache serializes before its first
				// invalidation, so its currency actually varies with the
				// report frequency (inv-only is always perfectly current).
				c.Scheme = core.Options{Kind: core.KindVCache, CacheSize: 100}
				c.Intervals = h
			})
			b.ReportMetric(m.AcceptRate, "accept_rate")
			b.ReportMetric(m.MeanStaleness*m.MeanBcastSlots, "staleness_slots")
		})
	}
}

// BenchmarkAblationIndexReplication sweeps the (1,m) index replication
// factor of the §2.1 selective-tuning substrate: access latency is
// U-shaped in m (minimized near sqrt(data/index)) while tuning time —
// the energy cost — stays flat.
func BenchmarkAblationIndexReplication(b *testing.B) {
	tree, err := index.Build(flatIndexEntries(1000), 10)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []int{1, 3, 9} {
		b.Run(itoa(m), func(b *testing.B) {
			layout, err := index.NewLayout(1000, tree.Buckets(), m, tree.Height())
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			var sumAccess, sumTuning float64
			n := 0
			for i := 0; i < b.N; i++ {
				for j := 0; j < 2000; j++ {
					access, tuning, err := layout.Walk(rng.Intn(layout.TotalSlots()), rng.Intn(layout.DataSlots))
					if err != nil {
						b.Fatal(err)
					}
					sumAccess += float64(access)
					sumTuning += float64(tuning)
					n++
				}
			}
			b.ReportMetric(sumAccess/float64(n), "access_slots")
			b.ReportMetric(sumTuning/float64(n), "tuning_slots")
		})
	}
}

func flatIndexEntries(n int) []index.Entry {
	out := make([]index.Entry, n)
	for i := range out {
		out[i] = index.Entry{Key: model.ItemID(i + 1), Slot: i}
	}
	return out
}

// BenchmarkScalabilityFleet measures the paper's headline property:
// per-client abort rate and latency stay flat as the client population
// grows, because all transaction processing is client-local.
func BenchmarkScalabilityFleet(b *testing.B) {
	for _, k := range []int{1, 4, 16} {
		b.Run(itoa(k), func(b *testing.B) {
			cfg := sim.DefaultConfig()
			cfg.Scheme = core.Options{Kind: core.KindSGT, CacheSize: 100}
			cfg.Queries = 120
			cfg.Warmup = 30
			var last *sim.FleetMetrics
			for i := 0; i < b.N; i++ {
				fm, err := sim.RunFleet(cfg, k)
				if err != nil {
					b.Fatal(err)
				}
				last = fm
			}
			b.ReportMetric(last.MeanAbortRate, "abort_rate")
			b.ReportMetric(last.MeanLatency, "latency_cycles")
		})
	}
}

// BenchmarkProducerPipeline measures the plan/place/execute commit
// pipeline on a write-heavy cycle batch across worker counts. It is the
// repo's only worker-count sweep: go run ./bench runs one worker.
func BenchmarkProducerPipeline(b *testing.B) {
	const (
		dbSize = 2000
		txsPer = 200
	)
	// A rotation of distinct batches, so the committed item sets vary
	// cycle to cycle like a real update stream and reader sets stay
	// bounded (a fixed batch would read some items every cycle without
	// ever writing them, accumulating readers — and cost — forever).
	mkBatches := func() [][]model.ServerTx {
		rng := rand.New(rand.NewSource(11))
		batches := make([][]model.ServerTx, 16)
		for bi := range batches {
			txs := make([]model.ServerTx, txsPer)
			for i := range txs {
				var ops []model.Op
				// Write-heavy: eight read-then-write pairs plus two pure reads.
				for w := 0; w < 8; w++ {
					item := model.ItemID(rng.Intn(dbSize) + 1)
					ops = append(ops, model.Op{Kind: model.OpRead, Item: item}, model.Op{Kind: model.OpWrite, Item: item})
				}
				for r := 0; r < 2; r++ {
					ops = append(ops, model.Op{Kind: model.OpRead, Item: model.ItemID(rng.Intn(dbSize) + 1)})
				}
				txs[i] = model.ServerTx{Ops: ops}
			}
			batches[bi] = txs
		}
		return batches
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run("pipeline-"+itoa(workers), func(b *testing.B) {
			srv, err := server.New(server.Config{DBSize: dbSize, MaxVersions: 2, Workers: workers})
			if err != nil {
				b.Fatal(err)
			}
			batches := mkBatches()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := srv.CommitAndAdvance(batches[i%len(batches)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQueryThroughput measures raw end-to-end simulation speed:
// queries processed per second through the full stack (server, becast
// assembly, client, SGT).
func BenchmarkQueryThroughput(b *testing.B) {
	cfg := sim.DefaultConfig()
	cfg.Scheme = core.Options{Kind: core.KindSGT, CacheSize: 100}
	cfg.Warmup = 0
	cfg.Queries = 100
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func ftoa(f float64) string {
	switch f {
	case 0.25:
		return "0.25"
	case 0.5:
		return "0.50"
	case 0.75:
		return "0.75"
	default:
		return "frac"
	}
}
