package server

import (
	"math/rand"
	"testing"

	"bpush/internal/model"
	"bpush/internal/obs"
	"bpush/internal/workload"
)

// countingRecorder is a trace sink that keeps nothing: it counts the
// events it receives and sums the edge counts of the sg-delta events.
type countingRecorder struct {
	events     int
	deltaEdges int64
}

func (c *countingRecorder) Record(e obs.Event) {
	c.events++
	if e.Type == obs.TypeSGDelta {
		c.deltaEdges += e.N
	}
}

// commitAllocs commits warm cycles of a seeded batch stream shaped like
// the paper's write-heavy maximum (D = 1,000, N = 50, U updates, four
// reads per update), then measures the allocations of further commits
// with a counting recorder attached. It returns the allocations per
// commit and the delta edges per commit, counted from the cycle logs.
func commitAllocs(t *testing.T, updates int) (allocs float64, edges int) {
	t.Helper()
	const warm, runs = 40, 20
	rec := &countingRecorder{}
	s := mustNew(t, Config{DBSize: 1000, MaxVersions: 4, Recorder: rec})
	gen, err := workload.NewServerGen(workload.ServerConfig{
		DBSize: 1000, UpdateRange: 500, Offset: 100, Theta: 0.95,
		TxPerCycle: 50, UpdatesPerCycle: updates, ReadsPerUpdate: 4,
	}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	// AllocsPerRun calls the function runs+1 times (one warm-up call).
	batches := make([][]model.ServerTx, warm+runs+1)
	for i := range batches {
		batches[i] = gen.Cycle()
	}
	for _, b := range batches[:warm] {
		if _, err := s.CommitAndAdvance(b); err != nil {
			t.Fatal(err)
		}
	}
	next, total := warm, 0
	eventsBefore, deltaBefore := rec.events, rec.deltaEdges
	allocs = testing.AllocsPerRun(runs, func() {
		log, err := s.CommitAndAdvance(batches[next])
		if err != nil {
			t.Fatal(err)
		}
		total += len(log.Delta.Edges)
		next++
	})
	// Three producer-phase events and one sg-delta event per commit,
	// whatever the number of edges.
	if got, want := rec.events-eventsBefore, 4*(runs+1); got != want {
		t.Errorf("%d events for %d commits, want %d", got, runs+1, want)
	}
	if got := rec.deltaEdges - deltaBefore; got != int64(total) {
		t.Errorf("sg-delta events report %d edges, cycle logs hold %d", got, total)
	}
	return allocs, total / (runs + 1)
}

// TestCommitAllocsDoNotGrowWithEdges is the commit pipeline's allocation
// pin. A traced write-heavy commit builds about 1,900 delta edges and
// allocates about 40 objects, for the cycle log and the pipeline's
// per-commit bookkeeping: none per edge or per transaction, and it emits
// one trace event per phase and one per delta, not one per edge. Going
// from U = 50 to U = 500 adds about 1,550 edges per commit and must add
// fewer than one allocation per 8 of them.
func TestCommitAllocsDoNotGrowWithEdges(t *testing.T) {
	heavy, heavyEdges := commitAllocs(t, 500)
	light, lightEdges := commitAllocs(t, 50)
	t.Logf("U=500: %v allocs, %d edges per commit; U=50: %v allocs, %d edges", heavy, heavyEdges, light, lightEdges)
	if heavyEdges < 1000 || heavyEdges < 3*lightEdges {
		t.Fatalf("batch shape drifted: %d edges at U=500, %d at U=50", heavyEdges, lightEdges)
	}
	const ceiling = 50 // 41 measured, plus a margin
	if heavy > ceiling {
		t.Errorf("write-heavy commit allocates %v objects, ceiling %d", heavy, ceiling)
	}
	if grow, budget := heavy-light, float64(heavyEdges-lightEdges)/8; grow >= budget {
		t.Errorf("allocations grow with edges: %v more for %d more edges, want < %v", grow, heavyEdges-lightEdges, budget)
	}
}
