// Package workload generates the server update transactions and the client
// read-only queries of the performance model in §5.1 of Pitoura &
// Chrysanthis (Figure 4 parameters).
//
// Server side: during each broadcast cycle, N transactions commit, jointly
// performing U updates drawn from a Zipf(theta) distribution over
// 1..UpdateRange rotated by Offset (modeling disagreement with the client's
// access pattern), plus read operations four times as frequent as updates,
// Zipf over 1..DBSize aligned ("zero offset") with the update set.
//
// Client side: queries read OpsPerQuery distinct items, Zipf(theta) over
// 1..ReadRange.
package workload

import (
	"fmt"
	"math/rand"

	"bpush/internal/model"
	"bpush/internal/zipf"
)

// ServerConfig parameterizes the update-transaction generator.
type ServerConfig struct {
	// DBSize is D: server reads range over 1..DBSize.
	DBSize int
	// UpdateRange bounds the update distribution (updates hit items
	// 1..UpdateRange before offsetting).
	UpdateRange int
	// Offset rotates the update (and server-read) distribution away from
	// the client's hot items.
	Offset int
	// Theta is the Zipf skew (0.95 in the paper).
	Theta float64
	// TxPerCycle is N.
	TxPerCycle int
	// UpdatesPerCycle is U; each cycle also performs ReadsPerUpdate*U
	// read operations.
	UpdatesPerCycle int
	// ReadsPerUpdate is the read:write ratio at the server (4 in the
	// paper).
	ReadsPerUpdate int
}

func (c ServerConfig) validate() error {
	if c.DBSize <= 0 {
		return fmt.Errorf("workload: DBSize must be positive, got %d", c.DBSize)
	}
	if c.UpdateRange <= 0 || c.UpdateRange > c.DBSize {
		return fmt.Errorf("workload: UpdateRange %d outside 1..%d", c.UpdateRange, c.DBSize)
	}
	if c.Offset < 0 {
		return fmt.Errorf("workload: negative offset %d", c.Offset)
	}
	if c.Theta < 0 {
		return fmt.Errorf("workload: negative theta %g", c.Theta)
	}
	if c.TxPerCycle <= 0 {
		return fmt.Errorf("workload: TxPerCycle must be positive, got %d", c.TxPerCycle)
	}
	if c.UpdatesPerCycle < 0 {
		return fmt.Errorf("workload: negative UpdatesPerCycle %d", c.UpdatesPerCycle)
	}
	if c.ReadsPerUpdate < 0 {
		return fmt.Errorf("workload: negative ReadsPerUpdate %d", c.ReadsPerUpdate)
	}
	return nil
}

// ServerGen generates one cycle's worth of update transactions at a time.
type ServerGen struct {
	cfg    ServerConfig
	rng    *rand.Rand
	writes *zipf.Dist
	reads  *zipf.Dist
}

// NewServerGen builds a generator; rng provides all randomness so runs are
// reproducible from a single seed.
func NewServerGen(cfg ServerConfig, rng *rand.Rand) (*ServerGen, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("workload: nil rng")
	}
	writes, err := zipf.New(zipf.Config{
		N: cfg.UpdateRange, Theta: cfg.Theta, Offset: cfg.Offset, Mod: cfg.UpdateRange,
	})
	if err != nil {
		return nil, fmt.Errorf("update distribution: %w", err)
	}
	// Server reads cover the whole database and share the update set's
	// rotation ("zero offset with the update set").
	reads, err := zipf.New(zipf.Config{
		N: cfg.DBSize, Theta: cfg.Theta, Offset: cfg.Offset, Mod: cfg.DBSize,
	})
	if err != nil {
		return nil, fmt.Errorf("server read distribution: %w", err)
	}
	return &ServerGen{cfg: cfg, rng: rng, writes: writes, reads: reads}, nil
}

// Cycle produces the N transactions committed during one broadcast cycle.
// Updates and reads are spread evenly across the transactions (with
// remainders on the earliest ones), and every write is preceded by a read
// of the same item, keeping histories strict.
func (g *ServerGen) Cycle() []model.ServerTx {
	n := g.cfg.TxPerCycle
	txs := make([]model.ServerTx, n)
	reads := g.cfg.UpdatesPerCycle * g.cfg.ReadsPerUpdate
	for i := range txs {
		nw := share(g.cfg.UpdatesPerCycle, n, i)
		nr := share(reads, n, i)
		txs[i] = g.tx(nw, nr)
	}
	return txs
}

func (g *ServerGen) tx(writes, reads int) model.ServerTx {
	ops := make([]model.Op, 0, reads+2*writes)
	for i := 0; i < reads; i++ {
		ops = append(ops, model.Op{Kind: model.OpRead, Item: model.ItemID(g.reads.Sample(g.rng))})
	}
	for i := 0; i < writes; i++ {
		item := model.ItemID(g.writes.Sample(g.rng))
		ops = append(ops, model.Op{Kind: model.OpRead, Item: item}, model.Op{Kind: model.OpWrite, Item: item})
	}
	return model.ServerTx{Ops: ops}
}

// share splits total across n slots, giving slot i its fair share with the
// remainder spread over the first slots.
func share(total, n, i int) int {
	base := total / n
	if i < total%n {
		return base + 1
	}
	return base
}

// ClientConfig parameterizes the query generator.
type ClientConfig struct {
	// ReadRange bounds the client's access range (a subset of the
	// broadcast: ReadRange <= DBSize).
	ReadRange int
	// Theta is the Zipf skew.
	Theta float64
	// OpsPerQuery is the number of read operations per query.
	OpsPerQuery int
}

func (c ClientConfig) validate() error {
	if c.ReadRange <= 0 {
		return fmt.Errorf("workload: ReadRange must be positive, got %d", c.ReadRange)
	}
	if c.Theta < 0 {
		return fmt.Errorf("workload: negative theta %g", c.Theta)
	}
	if c.OpsPerQuery <= 0 {
		return fmt.Errorf("workload: OpsPerQuery must be positive, got %d", c.OpsPerQuery)
	}
	if c.OpsPerQuery > c.ReadRange {
		return fmt.Errorf("workload: OpsPerQuery %d exceeds ReadRange %d (queries read distinct items)", c.OpsPerQuery, c.ReadRange)
	}
	return nil
}

// QueryGen generates client queries.
type QueryGen struct {
	cfg  ClientConfig
	rng  *rand.Rand
	dist *zipf.Dist
	seen map[model.ItemID]struct{} // Query's dedupe set, reused
}

// NewQueryGen builds a query generator.
func NewQueryGen(cfg ClientConfig, rng *rand.Rand) (*QueryGen, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("workload: nil rng")
	}
	d, err := zipf.New(zipf.Config{N: cfg.ReadRange, Theta: cfg.Theta})
	if err != nil {
		return nil, err
	}
	return &QueryGen{cfg: cfg, rng: rng, dist: d, seen: make(map[model.ItemID]struct{}, cfg.OpsPerQuery)}, nil
}

// Query returns the items of the next read-only transaction: OpsPerQuery
// distinct Zipf-distributed items, in request order (the order the client
// will ask for them, which is not broadcast order — the paper treats
// request reordering as a separate optimization).
func (g *QueryGen) Query() []model.ItemID {
	items := make([]model.ItemID, 0, g.cfg.OpsPerQuery)
	clear(g.seen)
	for len(items) < g.cfg.OpsPerQuery {
		it := model.ItemID(g.dist.Sample(g.rng))
		if _, dup := g.seen[it]; dup {
			continue
		}
		g.seen[it] = struct{}{}
		items = append(items, it)
	}
	return items
}
