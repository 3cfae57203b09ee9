package cyclesource

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"bpush/internal/core"
	"bpush/internal/model"
	"bpush/internal/server"
	"bpush/internal/sg"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// ErrOracleWindow marks a committed query whose span reaches further back
// than the oracle window; such commits are skipped, not failed.
var ErrOracleWindow = errors.New("cyclesource: query outlived the oracle window")

// archive keeps the database states and cycle logs produced, plus the
// full serialization graph (a ring of every cycle's in-edge block, never
// pruned), for the correctness oracle. Retention is
// total by default — the archive is part of the replayable cycle log, so
// a consumer that starts late can still have its earliest commits
// checked. The window applies at check time, relative to the checked
// query's commit cycle: the verdict for a given commit is therefore
// identical no matter how far production has advanced, which keeps
// oracle counters deterministic when many clients share one source.
//
// Once the source spills cycles to disk (LogDir with bounded MemCycles),
// retention follows the same bound: states and logs older than the
// in-memory window minus the check window are pruned, and a check whose
// span reaches below the pruned floor is reported as outside the oracle
// window — a clean, skipped verdict, never a silently wrong one (the SGT
// branch's per-cycle log lookup would otherwise treat a pruned log as "no
// writers that cycle"). A consumer that walks the stream as it is
// produced never commits below the floor, so pruning leaves its verdicts
// and counters untouched; the pruning differential pins that.
type archive struct {
	window model.Cycle
	floor  model.Cycle // lowest unpruned cycle; 1 until pruning starts
	states map[model.Cycle]model.DBState
	logs   map[model.Cycle]*server.CycleLog
	graph  *sg.Graph
	// search serializes the graph's cycle tests: checks run under the
	// source's read lock, concurrently, but each search uses the graph's
	// own scratch.
	search sync.Mutex
}

func newArchive(window int) *archive {
	return &archive{
		window: model.Cycle(window),
		floor:  1,
		states: make(map[model.Cycle]model.DBState),
		logs:   make(map[model.Cycle]*server.CycleLog),
		graph:  sg.New(),
	}
}

// prune discards states and logs below floor. Archived cycles are
// contiguous, so the walk deletes by key — no map iteration whose order
// could leak anywhere. The graph is kept whole: its per-cycle footprint
// is a handful of transactions, not a database state, and reachability
// queries may legitimately traverse edges older than the state window.
func (a *archive) prune(floor model.Cycle) {
	if floor <= a.floor {
		return
	}
	for c := a.floor; c < floor; c++ {
		delete(a.states, c)
		delete(a.logs, c)
	}
	a.floor = floor
}

// low returns the oldest cycle the oracle vouches for, for a query that
// committed at cycle c.
func (a *archive) low(c model.Cycle) model.Cycle {
	if c <= a.window {
		return 1
	}
	return c - a.window
}

func (a *archive) addState(c model.Cycle, s model.DBState) {
	a.states[c] = s
}

func (a *archive) addLog(l *server.CycleLog) {
	a.logs[l.Cycle] = l
	if err := a.graph.Apply(l.Delta); err != nil {
		// The server guarantees forward edges; a violation here is a
		// programming error worth surfacing loudly in simulations.
		panic(fmt.Sprintf("cyclesource: archive graph: %v", err))
	}
}

// check verifies a committed query. Schemes naming a serialization cycle
// are checked value-by-value against that archived state (Theorems 1, 2,
// 4, 5); SGT commits are checked by rebuilding the query's dependency and
// precedence edges and asserting acyclicity (Theorem 3). The reachability
// search only ever visits transactions that committed before the query's
// dependency sources (all edges run forward in commit order), so the
// verdict never depends on cycles produced after the commit.
func (a *archive) check(info core.CommitInfo) error {
	low := a.low(info.CommitCycle)
	if info.StartCycle < low {
		return ErrOracleWindow
	}
	if low < a.floor {
		// Part of the span the check may consult has been pruned; skip
		// rather than risk a verdict built on missing logs.
		return ErrOracleWindow
	}
	if info.SerializationCycle != 0 {
		if info.SerializationCycle < low {
			return ErrOracleWindow
		}
		state, ok := a.states[info.SerializationCycle]
		if !ok {
			return ErrOracleWindow
		}
		for _, obs := range info.Reads {
			want, err := state.Get(obs.Item)
			if err != nil {
				return err
			}
			if obs.Value != want {
				return fmt.Errorf("readset of %v inconsistent with state %v: %v = %d, state holds %d",
					info.CommitCycle, info.SerializationCycle, obs.Item, obs.Value, want)
			}
		}
		return nil
	}
	// SGT: dependency sources are the writers R read from; precedence
	// targets are all transactions that overwrote a readset item after
	// the version R observed. R is serializable iff no target reaches a
	// source.
	var sources, targets []model.TxID
	for _, obs := range info.Reads {
		if !obs.Writer.IsZero() {
			sources = append(sources, obs.Writer)
		}
		from := obs.Version + 1
		if from < low {
			from = low
		}
		for c := from; c <= info.CommitCycle; c++ {
			if log, ok := a.logs[c]; ok {
				targets = append(targets, log.AllWriters[obs.Item]...)
			}
		}
	}
	a.search.Lock()
	defer a.search.Unlock()
	for _, src := range sources {
		if a.graph.ReachableFromAny(targets, src) {
			return fmt.Errorf("SGT commit at %v not serializable: overwriter path reaches dependency source %v",
				info.CommitCycle, src)
		}
	}
	return nil
}
