package bpush_test

import (
	"fmt"
	"math/rand"
	"time"

	"bpush"
)

// ExampleSimulate runs the paper's simulation model at a reduced scale and
// prints whether the invalidation-only method commits anything under the
// default update load.
func ExampleSimulate() {
	cfg := bpush.DefaultSimConfig()
	cfg.DBSize = 100
	cfg.UpdateRange = 50
	cfg.ReadRange = 100
	cfg.Updates = 5
	cfg.OpsPerQuery = 4
	cfg.Queries = 50
	cfg.Warmup = 10
	cfg.Check = true // verify every commit against the consistency oracle
	cfg.Scheme = bpush.SchemeOptions{Kind: bpush.InvalidationOnly}

	m, err := bpush.Simulate(cfg)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("scheme:", m.SchemeName)
	fmt.Println("some queries committed:", m.Committed > 0)
	fmt.Println("accounting consistent:", m.Committed+m.Aborted == m.Queries)
	// Output:
	// scheme: inv-only
	// some queries committed: true
	// accounting consistent: true
}

// ExampleNewScheme shows how scheme kinds map to the paper's methods.
func ExampleNewScheme() {
	for _, kind := range []bpush.SchemeKind{
		bpush.InvalidationOnly,
		bpush.MultiversionBroadcast,
		bpush.SGT,
	} {
		s, err := bpush.NewScheme(bpush.SchemeOptions{Kind: kind})
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Println(s.Name())
	}
	// Output:
	// inv-only
	// multiversion
	// sgt
}

// ExampleSimulateFleet demonstrates the scalability property: a fleet of
// clients sharing one broadcast stream, each with client-local transaction
// processing.
func ExampleSimulateFleet() {
	cfg := bpush.DefaultSimConfig()
	cfg.DBSize = 100
	cfg.UpdateRange = 50
	cfg.ReadRange = 100
	cfg.Updates = 5
	cfg.OpsPerQuery = 4
	cfg.Queries = 40
	cfg.Warmup = 10
	cfg.Scheme = bpush.SchemeOptions{Kind: bpush.SGT}

	fm, err := bpush.SimulateFleet(cfg, 3)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("clients:", fm.Clients)
	fmt.Println("every client measured:", len(fm.PerClient) == fm.Clients)
	// Output:
	// clients: 3
	// every client measured: true
}

// tickingFeed paces a station by hand: each time the client asks for the
// next becast, the station airs exactly one cycle, so every run hears the
// same stream whatever the machine's speed.
type tickingFeed struct {
	station *bpush.Station
	tuner   *bpush.Tuner
}

func (f tickingFeed) Next() (*bpush.Becast, error) {
	if err := f.station.Tick(); err != nil {
		return nil, err
	}
	return f.tuner.Next()
}

// ExampleNewStation runs a live push-based stock feed over TCP: the
// station broadcasts 300 ticker prices that update transactions keep
// changing, and a desk values a 5-stock portfolio with read-only
// transactions. Every committed valuation reads all five prices from one
// database state, even though prices change mid-read, and the station
// never hears from the desk.
func ExampleNewStation() {
	const tickers = 300
	station, err := bpush.NewStation(bpush.StationConfig{
		Addr:     "127.0.0.1:0",
		DBSize:   tickers,
		Versions: 8,
		Workload: bpush.ServerWorkload{
			DBSize:          tickers,
			UpdateRange:     150, // the actively traded half
			Theta:           0.95,
			TxPerCycle:      5,
			UpdatesPerCycle: 20,
			ReadsPerUpdate:  4,
		},
		Interval: 0, // manual pacing: the feed below calls Tick
		Seed:     1,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer func() { _ = station.Close() }()

	tuner, err := bpush.DialTuner(station.Addr())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer tuner.Close()
	// Subscribe before the first cycle airs, so the desk hears cycle 1.
	for station.Subscribers() == 0 {
		time.Sleep(time.Millisecond)
	}

	scheme, err := bpush.NewScheme(bpush.SchemeOptions{Kind: bpush.SGT, CacheSize: 50})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	desk, err := bpush.NewClient(scheme, tickingFeed{station, tuner}, bpush.ClientConfig{ThinkTime: 100})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	basket := []bpush.ItemID{1, 12, 23, 34, 45}
	for q := 0; q < 6; q++ {
		res, err := desk.RunQuery(basket)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		if !res.Committed {
			fmt.Printf("valuation aborted (%s)\n", res.AbortReason)
			continue
		}
		var total bpush.Value
		for _, r := range res.Info.Reads {
			total += r.Value
		}
		fmt.Printf("valuation %d at cycle %d over %d cycles\n", total, res.Info.CommitCycle, res.LatencyCycles)
	}
	fmt.Println("requests sent upstream:", station.Cast().Traffic().BytesReceived)
	// Output:
	// valuation aborted (reading item#23 from tx(3.3) closes a serialization cycle)
	// valuation 115000011 at cycle 8 over 5 cycles
	// valuation aborted (reading item#12 from tx(10.2) closes a serialization cycle)
	// valuation 115000040 at cycle 13 over 4 cycles
	// valuation 115000050 at cycle 14 over 2 cycles
	// valuation aborted (reading item#34 from tx(16.2) closes a serialization cycle)
	// requests sent upstream: 0
}

// ExampleBuildIndex shows selective tuning with on-air (1,m) indexing
// (§2.1): a client that reads the index dozes between a handful of probes
// instead of listening to the whole broadcast. Sweeping the replication
// factor m gives the classical trade-off: access latency is U-shaped in m,
// lowest near sqrt(data/index), while tuning time, the energy cost, stays
// flat.
func ExampleBuildIndex() {
	src, err := bpush.NewCycleSource(bpush.CycleSourceConfig{
		DBSize:   1000,
		Versions: 1,
		Workload: bpush.ServerWorkload{
			DBSize: 1000, UpdateRange: 500, Theta: 0.95,
			TxPerCycle: 10, UpdatesPerCycle: 50, ReadsPerUpdate: 4,
		},
		Seed: 1,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	becast, err := src.Get(0)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	tree, err := bpush.BuildIndex(becast, 10)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("%d items; index height %d, %d buckets per copy\n",
		len(becast.Entries), tree.Height(), tree.Buckets())

	opt := bpush.OptimalIndexReplication(len(becast.Entries), tree.Buckets())
	rng := rand.New(rand.NewSource(1))
	for _, m := range []int{1, 2, opt, 6, 12} {
		layout, err := bpush.NewIndexLayout(len(becast.Entries), tree.Buckets(), m, tree.Height())
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		const probes = 5000
		var access, tuning int
		for i := 0; i < probes; i++ {
			a, tu, err := layout.Walk(rng.Intn(layout.TotalSlots()), rng.Intn(layout.DataSlots))
			if err != nil {
				fmt.Println("error:", err)
				return
			}
			access += a
			tuning += tu
		}
		fmt.Printf("m=%-2d cycle %4d slots: access %4d, tuning %d\n",
			m, layout.TotalSlots(), access/probes, tuning/probes)
	}
	// Output:
	// 1000 items; index height 3, 111 buckets per copy
	// m=1  cycle 1111 slots: access 1164, tuning 5
	// m=2  cycle 1222 slots: access  981, tuning 5
	// m=3  cycle 1333 slots: access  937, tuning 5
	// m=6  cycle 1666 slots: access 1025, tuning 5
	// m=12 cycle 2332 slots: access 1332, tuning 5
}
