package server

import (
	"math/rand"
	"testing"

	"bpush/internal/model"
	"bpush/internal/obs"
	"bpush/internal/workload"
)

// countingRecorder is a trace sink that keeps nothing: it counts the
// events it receives and the TxID bytes they carry, so the endpoint
// names are produced and read as a real sink would.
type countingRecorder struct{ events, nameBytes int }

func (c *countingRecorder) Record(e obs.Event) {
	c.events++
	c.nameBytes += len(e.From) + len(e.To)
}

// commitAllocs commits warm cycles of a seeded batch stream shaped like
// the paper's write-heavy maximum (D = 1,000, N = 50, U updates, four
// reads per update), then measures the allocations of further commits
// with a counting recorder attached. It returns the allocations per
// commit and the sg-edge events per commit.
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
	next, before := warm, rec.events
	allocs = testing.AllocsPerRun(runs, func() {
		if _, err := s.CommitAndAdvance(batches[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	// Three of each commit's events are producer-phase events.
	return allocs, (rec.events-before)/(runs+1) - 3
}

// TestCommitAllocsDoNotGrowWithEdges is the commit pipeline's allocation
// pin. A traced write-heavy commit emits about 1,900 sg-edge events
// between about 370 distinct transactions; it allocates about 400
// objects, one string per distinct transaction and a few dozen for the
// cycle log, none per edge. Going from U = 50 to U = 500 adds about 1,550
// edges per commit and must add fewer than one allocation per 8 of them.
func TestCommitAllocsDoNotGrowWithEdges(t *testing.T) {
	heavy, heavyEdges := commitAllocs(t, 500)
	light, lightEdges := commitAllocs(t, 50)
	t.Logf("U=500: %v allocs, %d edges per commit; U=50: %v allocs, %d edges", heavy, heavyEdges, light, lightEdges)
	if heavyEdges < 1000 || heavyEdges < 3*lightEdges {
		t.Fatalf("batch shape drifted: %d edges at U=500, %d at U=50", heavyEdges, lightEdges)
	}
	const ceiling = 440 // 402 measured, plus a margin
	if heavy > ceiling {
		t.Errorf("write-heavy commit allocates %v objects, ceiling %d", heavy, ceiling)
	}
	if grow, budget := heavy-light, float64(heavyEdges-lightEdges)/8; grow >= budget {
		t.Errorf("allocations grow with edges: %v more for %d more edges, want < %v", grow, heavyEdges-lightEdges, budget)
	}
}
