package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"bpush/internal/core"
	"bpush/internal/fault"
	"bpush/internal/obs"
)

// chaosConfig shrinks the test configuration further: fault plans force
// extra cycles (missed frames stall queries), so chaos cells run fewer
// queries than the clean-path tests.
func chaosConfig(opts core.Options, plan fault.Plan, seed int64) Config {
	cfg := testConfig(opts.Kind, opts.CacheSize)
	cfg.Scheme = opts
	cfg.Queries = 80
	cfg.Warmup = 10
	cfg.Seed = seed
	cfg.Fault = plan
	cfg.OracleWindow = 1024 // bursts can push serialization cycles far back
	return cfg
}

// chaosVariants are the scheme configurations the chaos suite certifies
// under every shipped plan, each at every seed in chaosSeeds.
var chaosVariants = []core.Options{
	{Kind: core.KindInvOnly},
	{Kind: core.KindInvOnly, ResyncOnReconnect: true},
	{Kind: core.KindVCache, CacheSize: 40, ResyncOnReconnect: true},
	{Kind: core.KindMVBroadcast},
	{Kind: core.KindMVBroadcast, CacheSize: 40, TolerateDisconnects: true},
	{Kind: core.KindMVCache, CacheSize: 40},
	{Kind: core.KindSGT},
	{Kind: core.KindSGT, TolerateDisconnects: true},
}

var chaosSeeds = []int64{1, 99}

func chaosLabel(plan string, opts core.Options, seed int64) string {
	return fmt.Sprintf("%s/%v-res%v-tol%v/seed%d",
		plan, opts.Kind, opts.ResyncOnReconnect, opts.TolerateDisconnects, seed)
}

// chaosCellConfig is one cell of the chaos suite.
func chaosCellConfig(opts core.Options, plan fault.Plan, seed int64) Config {
	cfg := chaosConfig(opts, plan, seed)
	if opts.Kind == core.KindMVBroadcast {
		cfg.ServerVersions = 6
	}
	return cfg
}

// shippedPlan returns fault's named plan.
func shippedPlan(t testing.TB, name string) fault.Plan {
	t.Helper()
	p, err := fault.ParsePlan(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestChaosOracleAcrossSchemesAndPlans is the chaos property suite: every
// scheme, under every shipped fault plan, with the consistency oracle on.
// The property is the paper's correctness claim extended to a hostile
// channel — faults may abort transactions or slow them down, but no
// accepted transaction is ever inconsistent, and no fault surfaces as an
// infrastructure error. Each cell is exercised under two seeds.
func TestChaosOracleAcrossSchemesAndPlans(t *testing.T) {
	for _, name := range fault.PlanNames() {
		plan := shippedPlan(t, name)
		for _, opts := range chaosVariants {
			for _, seed := range chaosSeeds {
				opts, plan, seed := opts, plan, seed
				label := chaosLabel(name, opts, seed)
				t.Run(label, func(t *testing.T) {
					t.Parallel()
					cfg := chaosCellConfig(opts, plan, seed)
					m, err := Run(cfg)
					if err != nil {
						t.Fatalf("chaos run failed: %v", err)
					}
					if m.Queries != cfg.Queries {
						t.Errorf("ran %d queries, want %d", m.Queries, cfg.Queries)
					}
					if m.Committed+m.Aborted != m.Queries {
						t.Errorf("committed %d + aborted %d != %d queries",
							m.Committed, m.Aborted, m.Queries)
					}
					if !plan.IsZero() && plan.Duplicate == 0 && plan.Reorder == 0 && m.MissedCycles == 0 {
						t.Errorf("loss plan %s injected no missed cycles over %d cycles", plan, m.Cycles)
					}
				})
			}
		}
	}
}

// TestChaosGolden pins what every chaos cell's client heard and did: per
// shipped plan, a SHA-256 over each cell's Metrics and client trace, in
// variant and seed order. The hashes were captured before the sim fault
// injector was rebuilt on the station's fault ladder and on the source's
// own frames, so they hold that the rebuild moved no draw and no count.
func TestChaosGolden(t *testing.T) {
	want := map[string]string{
		"bursty": "8d896acc7c8c6b0d185a9750f4a3431f7a2e7859a239b90adc00754a3b6757d0",
		"chaos":  "908a466054f9a2032af4221968d03cf9478f42a14c08067098e9777671fa7f99",
		"drops":  "61660da9ed8f3693b9887f7202dd77912244487aefb98325d18afd7f3cb23378",
		"jitter": "d5b6cc140ee815482221c7320e8712d5e22213d740ace188dc04676471e6027b",
		"noise":  "01f9539e56f8ebabebb66e75774e19c8227dbdc27d3f773d2b28138866e8701e",
	}
	for _, name := range fault.PlanNames() {
		plan := shippedPlan(t, name)
		h := sha256.New()
		for _, opts := range chaosVariants {
			for _, seed := range chaosSeeds {
				cfg := chaosCellConfig(opts, plan, seed)
				var trace bytes.Buffer
				rec := obs.NewJSONL(&trace)
				cfg.Recorder = rec
				m, err := Run(cfg)
				if err != nil {
					t.Fatalf("%s: %v", chaosLabel(name, opts, seed), err)
				}
				if rec.Err() != nil {
					t.Fatal(rec.Err())
				}
				fmt.Fprintf(h, "%s\n%+v\n", chaosLabel(name, opts, seed), *m)
				h.Write(trace.Bytes())
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[name] {
			t.Errorf("plan %s: sha256 %s, want %s", name, got, want[name])
		}
	}
}

// TestDropPlanMatchesDisconnectSchedule is the metamorphic check that the
// fault layer strictly subsumes the paper's disconnection model: a
// drop-only plan must reproduce the DisconnectProb schedule byte for byte
// — identical Metrics, not just statistically similar ones — because both
// draw the same decisions from the same seeded RNG.
func TestDropPlanMatchesDisconnectSchedule(t *testing.T) {
	const p = 0.08
	for _, opts := range []core.Options{
		{Kind: core.KindInvOnly},
		{Kind: core.KindVCache, CacheSize: 40},
		{Kind: core.KindMVBroadcast},
		{Kind: core.KindMVCache, CacheSize: 40},
		{Kind: core.KindSGT},
	} {
		t.Run(opts.Kind.String(), func(t *testing.T) {
			disc := testConfig(opts.Kind, opts.CacheSize)
			disc.Scheme = opts
			disc.DisconnectProb = p
			if opts.Kind == core.KindMVBroadcast {
				disc.ServerVersions = 6
			}
			drop := disc
			drop.DisconnectProb = 0
			drop.Fault = fault.Plan{Drop: p}

			mDisc, err := Run(disc)
			if err != nil {
				t.Fatalf("disconnect run: %v", err)
			}
			mDrop, err := Run(drop)
			if err != nil {
				t.Fatalf("drop-plan run: %v", err)
			}
			if !reflect.DeepEqual(mDisc, mDrop) {
				t.Errorf("drop-only plan diverged from DisconnectProb:\n disconnect: %+v\n fault:      %+v",
					mDisc, mDrop)
			}
			if mDisc.MissedCycles == 0 {
				t.Error("schedule injected no misses; the comparison is vacuous")
			}
		})
	}
}

// TestChaosDeterminism pins the replayability contract: the same (seed,
// plan) produces identical Metrics run after run, and fleet results are
// identical whatever the worker count — faults are drawn per client from
// the client's own seed, never from shared state.
func TestChaosDeterminism(t *testing.T) {
	plan := shippedPlan(t, "chaos")

	cfg := chaosConfig(core.Options{Kind: core.KindSGT, TolerateDisconnects: true}, plan, 7)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same (seed, plan) produced different Metrics:\n first:  %+v\n second: %+v", a, b)
	}

	fleet := chaosConfig(core.Options{Kind: core.KindVCache, CacheSize: 40, ResyncOnReconnect: true}, plan, 11)
	fleet.Queries = 40
	const clients = 6
	fleet.Parallel = 1
	serial, err := RunFleet(fleet, clients)
	if err != nil {
		t.Fatal(err)
	}
	fleet.Parallel = 4
	parallel, err := RunFleet(fleet, clients)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("chaos fleet metrics differ between serial and parallel runs")
	}
	// Clients must not share a fault schedule: with per-client seeds the
	// miss counts should not all be equal... unless the channel is clean.
	allSame := true
	for _, m := range serial.PerClient[1:] {
		if m.MissedCycles != serial.PerClient[0].MissedCycles {
			allSame = false
			break
		}
	}
	if allSame {
		t.Errorf("every client lost exactly %d cycles; fault schedules look shared",
			serial.PerClient[0].MissedCycles)
	}
}
