package cyclesource

import (
	"errors"
	"sync"
	"testing"

	"bpush/internal/core"
	"bpush/internal/model"
	"bpush/internal/server"
	"bpush/internal/sg"
	"bpush/internal/workload"
)

func testConfig() Config {
	return Config{
		DBSize:   100,
		Versions: 1,
		Workload: workload.ServerConfig{
			DBSize:          100,
			UpdateRange:     50,
			Offset:          10,
			Theta:           0.95,
			TxPerCycle:      4,
			UpdatesPerCycle: 8,
			ReadsPerUpdate:  2,
		},
		Seed: 7,
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := testConfig()
	cfg.DBSize = 0
	if _, err := New(cfg); err == nil {
		t.Error("zero DBSize accepted")
	}
	cfg = testConfig()
	cfg.Workload.DBSize = 50
	if _, err := New(cfg); err == nil {
		t.Error("mismatched workload DBSize accepted")
	}
	cfg = testConfig()
	cfg.Chunks = 3 // does not divide 100
	if _, err := New(cfg); err == nil {
		t.Error("non-dividing chunk count accepted")
	}
	cfg = testConfig()
	cfg.Check = true
	cfg.OracleWindow = 2
	if _, err := New(cfg); err == nil {
		t.Error("tiny oracle window accepted")
	}
}

func TestProduceOnce(t *testing.T) {
	src, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, err := src.Get(3)
	if err != nil {
		t.Fatal(err)
	}
	if got := src.Produced(); got != 4 {
		t.Errorf("Produced() = %d after Get(3), want 4", got)
	}
	b, err := src.Get(3)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("Get(3) produced a second becast for the same cycle")
	}
	if _, err := src.Get(-1); err == nil {
		t.Error("negative index accepted")
	}
}

func TestFeedsReplayIdenticalStream(t *testing.T) {
	src, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	f1, f2 := src.NewFeed(), src.NewFeed()
	// f1 runs ahead; f2 replays from the log.
	for i := 0; i < 10; i++ {
		if _, err := f1.Next(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		b1, err := src.Get(i)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := f2.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b1 != b2 {
			t.Fatalf("feed replay diverged at cycle %d", i)
		}
	}
	if f1.Cycles() != 10 || f2.Cycles() != 10 {
		t.Errorf("feed cycle counters %d/%d, want 10/10", f1.Cycles(), f2.Cycles())
	}
	if len(f1.Lens()) != 10 {
		t.Errorf("feed tracked %d lengths, want 10", len(f1.Lens()))
	}
}

func TestConcurrentConsumers(t *testing.T) {
	src, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	const consumers, cycles = 8, 40
	var wg sync.WaitGroup
	errs := make([]error, consumers)
	for w := 0; w < consumers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			f := src.NewFeed()
			var prev model.Cycle
			for i := 0; i < cycles; i++ {
				b, err := f.Next()
				if err != nil {
					errs[w] = err
					return
				}
				if b.Cycle <= prev {
					errs[w] = errors.New("non-monotone cycle stream")
					return
				}
				prev = b.Cycle
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("consumer %d: %v", w, err)
		}
	}
	if got := src.Produced(); got != cycles {
		t.Errorf("Produced() = %d, want %d (each cycle produced exactly once)", got, cycles)
	}
}

func TestChunkedProduction(t *testing.T) {
	cfg := testConfig()
	cfg.Chunks = 4
	cfg.Workload.TxPerCycle = 1
	cfg.Workload.UpdatesPerCycle = 2
	src, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := src.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	if b.Items() != 25 || b.TotalItems != 100 {
		t.Errorf("chunked becast carries %d of %d items, want 25 of 100", b.Items(), b.TotalItems)
	}
}

func TestCheckRequiresOracle(t *testing.T) {
	src, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Check(core.CommitInfo{}); err == nil {
		t.Error("Check succeeded without Config.Check")
	}
}

// Archive-level tests (ported from the simulator, which used to own the
// oracle): the window is now anchored at the checked query's commit cycle
// rather than the producer's head, so verdicts are independent of how far
// production has advanced.

func archLog(c model.Cycle, writers map[model.ItemID][]model.TxID) *server.CycleLog {
	l := &server.CycleLog{
		Cycle:       c,
		FirstWriter: make(map[model.ItemID]model.TxID),
		LastWriter:  make(map[model.ItemID]model.TxID),
		AllWriters:  writers,
	}
	l.Delta.Cycle = c
	for item, ws := range writers {
		l.FirstWriter[item] = ws[0]
		l.LastWriter[item] = ws[len(ws)-1]
		l.Delta.Nodes = append(l.Delta.Nodes, ws...)
	}
	return l
}

func TestArchiveLow(t *testing.T) {
	a := newArchive(8)
	if a.low(3) != 1 {
		t.Errorf("low(3) = %v, want 1", a.low(3))
	}
	if a.low(20) != 12 {
		t.Errorf("low(20) = %v, want 12", a.low(20))
	}
}

func TestArchiveCheckStateMismatch(t *testing.T) {
	a := newArchive(16)
	a.addState(3, model.DBState{10, 20})
	info := core.CommitInfo{
		StartCycle:         3,
		CommitCycle:        3,
		SerializationCycle: 3,
		Reads:              []model.ReadObservation{{Item: 2, Value: 99}},
	}
	if err := a.check(info); err == nil {
		t.Error("inconsistent readset passed the oracle")
	}
	info.Reads[0].Value = 20
	if err := a.check(info); err != nil {
		t.Errorf("consistent readset rejected: %v", err)
	}
}

func TestArchiveCheckOutsideWindow(t *testing.T) {
	a := newArchive(8)
	for c := model.Cycle(1); c <= 30; c++ {
		a.addState(c, model.DBState{1})
	}
	// A query spanning 28 cycles exceeds a window of 8 no matter when it
	// is checked.
	info := core.CommitInfo{StartCycle: 2, CommitCycle: 30, SerializationCycle: 30}
	if err := a.check(info); !errors.Is(err, ErrOracleWindow) {
		t.Errorf("check outside window = %v, want ErrOracleWindow", err)
	}
	// The same span inside the window passes (full retention: the verdict
	// depends on the query, not on how much has been produced since).
	info = core.CommitInfo{StartCycle: 25, CommitCycle: 30, SerializationCycle: 30}
	if err := a.check(info); err != nil {
		t.Errorf("check inside window = %v, want nil", err)
	}
}

func TestArchiveSGTCheck(t *testing.T) {
	a := newArchive(32)
	ta := model.TxID{Cycle: 2, Seq: 0}
	tb := model.TxID{Cycle: 3, Seq: 0}
	// T_a wrote item 1 (cycle 2); T_b wrote item 2 (cycle 3); and there
	// is a server path T_a -> T_b.
	la := archLog(2, map[model.ItemID][]model.TxID{1: {ta}})
	lb := archLog(3, map[model.ItemID][]model.TxID{2: {tb}})
	lb.Delta.Edges = append(lb.Delta.Edges, sg.Edge{From: ta, To: tb})
	a.addLog(la)
	a.addLog(lb)

	// Query read item 2 from T_b (version 3) and item 1 at version 1
	// (pre-T_a); T_a overwrote it afterwards. Dependency source T_b,
	// precedence target T_a, path T_a -> T_b: cycle -> must fail.
	bad := core.CommitInfo{
		StartCycle:  2,
		CommitCycle: 3,
		Reads: []model.ReadObservation{
			{Item: 1, Value: 0, Version: 1, Writer: model.InitialLoadTx},
			{Item: 2, Value: 0, Version: 3, Writer: tb},
		},
	}
	if err := a.check(bad); err == nil {
		t.Error("non-serializable SGT commit passed the oracle")
	}

	// Reading item 1's *current* version (written by T_a) instead is
	// serializable: no precedence target precedes a dependency source.
	good := core.CommitInfo{
		StartCycle:  2,
		CommitCycle: 3,
		Reads: []model.ReadObservation{
			{Item: 1, Value: 0, Version: 2, Writer: ta},
			{Item: 2, Value: 0, Version: 3, Writer: tb},
		},
	}
	if err := a.check(good); err != nil {
		t.Errorf("serializable SGT commit rejected: %v", err)
	}
}

// TestArchiveConcurrentSGTChecks: Source.Check runs under the source's
// read lock, so consumers check concurrently, while the archive graph's
// cycle test uses the graph's own search scratch. Every verdict must
// still be the serial one (and, under -race, the scratch unshared).
func TestArchiveConcurrentSGTChecks(t *testing.T) {
	a := newArchive(32)
	ta := model.TxID{Cycle: 2, Seq: 0}
	tb := model.TxID{Cycle: 3, Seq: 0}
	lb := archLog(3, map[model.ItemID][]model.TxID{2: {tb}})
	lb.Delta.Edges = append(lb.Delta.Edges, sg.Edge{From: ta, To: tb})
	a.addLog(archLog(2, map[model.ItemID][]model.TxID{1: {ta}}))
	a.addLog(lb)
	bad := core.CommitInfo{StartCycle: 2, CommitCycle: 3, Reads: []model.ReadObservation{
		{Item: 1, Version: 1, Writer: model.InitialLoadTx},
		{Item: 2, Version: 3, Writer: tb},
	}}
	good := core.CommitInfo{StartCycle: 2, CommitCycle: 3, Reads: []model.ReadObservation{
		{Item: 1, Version: 2, Writer: ta},
		{Item: 2, Version: 3, Writer: tb},
	}}
	var mu sync.RWMutex // stands in for the source's lock, held shared
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				mu.RLock()
				badErr, goodErr := a.check(bad), a.check(good)
				mu.RUnlock()
				if badErr == nil || goodErr != nil {
					t.Errorf("concurrent check: bad -> %v, good -> %v", badErr, goodErr)
					return
				}
			}
		}()
	}
	wg.Wait()
}
