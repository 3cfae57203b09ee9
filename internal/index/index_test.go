package index

import (
	"math/rand"
	"testing"

	"bpush/internal/bdisk"
	"bpush/internal/broadcast"
	"bpush/internal/model"
	"bpush/internal/server"
)

func flatEntries(n int) []Entry {
	out := make([]Entry, n)
	for i := range out {
		out[i] = Entry{Key: model.ItemID(i + 1), Slot: i}
	}
	return out
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(flatEntries(10), 1); err == nil {
		t.Error("fanout 1 accepted")
	}
	if _, err := Build(nil, 4); err == nil {
		t.Error("empty entries accepted")
	}
	dup := []Entry{{Key: 1, Slot: 0}, {Key: 1, Slot: 5}}
	if _, err := Build(dup, 4); err == nil {
		t.Error("duplicate keys accepted")
	}
}

func TestLookupFindsEverySlot(t *testing.T) {
	tree, err := Build(flatEntries(100), 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 100; i++ {
		slot, probes, ok := tree.Lookup(model.ItemID(i))
		if !ok {
			t.Fatalf("key %d not found", i)
		}
		if slot != i-1 {
			t.Errorf("Lookup(%d) slot = %d, want %d", i, slot, i-1)
		}
		if probes != tree.Height() {
			t.Errorf("probes = %d, want height %d", probes, tree.Height())
		}
	}
	if _, _, ok := tree.Lookup(999); ok {
		t.Error("absent key found")
	}
}

func TestHeightAndBuckets(t *testing.T) {
	tests := []struct {
		n, fanout  int
		wantHeight int
		minBuckets int
	}{
		{n: 8, fanout: 8, wantHeight: 1, minBuckets: 1},
		{n: 64, fanout: 8, wantHeight: 2, minBuckets: 9},
		{n: 100, fanout: 8, wantHeight: 3, minBuckets: 13},
		{n: 1000, fanout: 10, wantHeight: 3, minBuckets: 111},
	}
	for _, tt := range tests {
		tree, err := Build(flatEntries(tt.n), tt.fanout)
		if err != nil {
			t.Fatal(err)
		}
		if tree.Height() != tt.wantHeight {
			t.Errorf("n=%d f=%d Height = %d, want %d", tt.n, tt.fanout, tree.Height(), tt.wantHeight)
		}
		if tree.Buckets() < tt.minBuckets {
			t.Errorf("n=%d f=%d Buckets = %d, want >= %d", tt.n, tt.fanout, tree.Buckets(), tt.minBuckets)
		}
	}
}

func TestFromBcastUsesFirstOccurrence(t *testing.T) {
	srv, err := server.New(server.Config{DBSize: 12, MaxVersions: 1})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := bdisk.TwoDisk(12, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := broadcast.Assemble(srv, nil, prog)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := FromBcast(b, 4)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Len() != 12 {
		t.Fatalf("indexed %d keys, want 12", tree.Len())
	}
	for i := 1; i <= 12; i++ {
		slot, _, ok := tree.Lookup(model.ItemID(i))
		if !ok {
			t.Fatalf("item %d missing", i)
		}
		if want := b.Position(model.ItemID(i)); slot != want {
			t.Errorf("item %d slot = %d, want first occurrence %d", i, slot, want)
		}
	}
}

func TestLayoutValidation(t *testing.T) {
	if _, err := NewLayout(0, 10, 2, 2); err == nil {
		t.Error("zero data accepted")
	}
	if _, err := NewLayout(100, 10, 0, 2); err == nil {
		t.Error("zero m accepted")
	}
	if _, err := NewLayout(100, 10, 200, 2); err == nil {
		t.Error("m > data accepted")
	}
}

func TestExpectedAccessTradeoff(t *testing.T) {
	// More index copies shorten the wait for an index but lengthen the
	// cycle: the classical U-shape. Check m=1 is worse than the optimum
	// and that huge m is worse again.
	const data, idx, probes = 1000, 111, 3
	access := func(m int) float64 {
		l, err := NewLayout(data, idx, m, probes)
		if err != nil {
			t.Fatal(err)
		}
		return l.ExpectedAccess()
	}
	opt := OptimalM(data, idx)
	if opt < 2 || opt > 5 {
		t.Fatalf("OptimalM = %d, want sqrt(1000/111) ~ 3", opt)
	}
	if access(opt) >= access(1) {
		t.Errorf("optimal m=%d access %.0f not better than m=1 %.0f", opt, access(opt), access(1))
	}
	if access(opt) >= access(9) {
		t.Errorf("optimal m=%d access %.0f not better than m=9 %.0f", opt, access(opt), access(9))
	}
}

func TestExpectedTuningIndependentOfM(t *testing.T) {
	// Tuning time (energy) depends on the tree height, not on m.
	for _, m := range []int{1, 3, 9} {
		l, err := NewLayout(1000, 111, m, 3)
		if err != nil {
			t.Fatal(err)
		}
		if got := l.ExpectedTuning(); got != 5 {
			t.Errorf("m=%d ExpectedTuning = %g, want 5 (probe + 3 levels + item)", m, got)
		}
	}
}

func TestWalkBounds(t *testing.T) {
	l, err := NewLayout(100, 13, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Walk(0, -1); err == nil {
		t.Error("negative item slot accepted")
	}
	if _, _, err := l.Walk(0, 100); err == nil {
		t.Error("item slot beyond data accepted")
	}
	if _, _, err := l.Walk(-1, 0); err == nil {
		t.Error("negative start accepted")
	}
	if _, _, err := l.Walk(l.TotalSlots(), 0); err == nil {
		t.Error("start beyond cycle accepted")
	}
}

func TestWalkStatisticsMatchAnalysis(t *testing.T) {
	// Average the protocol walk over random starts/items and compare to
	// the analytic expectation (within slack — the analysis ignores
	// chunk-boundary effects).
	l, err := NewLayout(1000, 111, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	var sumAccess, sumTuning float64
	const n = 20000
	for i := 0; i < n; i++ {
		access, tuning, err := l.Walk(rng.Intn(l.TotalSlots()), rng.Intn(l.DataSlots))
		if err != nil {
			t.Fatal(err)
		}
		if access <= 0 || access > 2*l.TotalSlots() {
			t.Fatalf("access %d outside (0, 2 cycles]", access)
		}
		sumAccess += float64(access)
		sumTuning += float64(tuning)
	}
	meanAccess := sumAccess / n
	want := l.ExpectedAccess()
	if meanAccess < 0.6*want || meanAccess > 1.4*want {
		t.Errorf("mean simulated access %.0f far from analytic %.0f", meanAccess, want)
	}
	meanTuning := sumTuning / n
	if meanTuning != l.ExpectedTuning() {
		t.Errorf("mean tuning %.2f, want exactly %.1f (protocol is deterministic in probes)",
			meanTuning, l.ExpectedTuning())
	}
	// The point of the exercise: tuning time is orders of magnitude
	// below listening to the whole broadcast.
	if meanTuning > 0.02*float64(l.TotalSlots()) {
		t.Errorf("tuning %.1f slots is not selective (cycle is %d)", meanTuning, l.TotalSlots())
	}
}

// slotCycle is Walk's oracle: the (1,m) cycle laid out slot by slot. Each
// of the M segments is one index copy followed by its data chunk, and the
// last chunk takes the DataSlots%M remainder.
type slotCycle struct {
	total    int
	probes   int
	nextCopy []int // first slot after t that starts an index copy; total is the next cycle's slot 0
	slotOf   []int // cycle slot of each data slot
}

func newSlotCycle(l Layout) slotCycle {
	c := slotCycle{total: l.TotalSlots(), probes: l.Probes, slotOf: make([]int, l.DataSlots)}
	copyAt := make([]bool, c.total)
	pos, d := 0, 0
	for k := 0; k < l.M; k++ {
		copyAt[pos] = true
		pos += l.IndexBuckets
		n := l.DataSlots / l.M
		if k == l.M-1 {
			n = l.DataSlots - d
		}
		for j := 0; j < n; j++ {
			c.slotOf[d] = pos
			d++
			pos++
		}
	}
	c.nextCopy = make([]int, c.total)
	next := c.total
	for t := c.total - 1; t >= 0; t-- {
		c.nextCopy[t] = next
		if copyAt[t] {
			next = t
		}
	}
	return c
}

// walk steps through the protocol: one probe at start, doze to the next
// index copy, read Probes buckets, doze to the item's next airing.
func (c slotCycle) walk(start, itemSlot int) (access, tuning int) {
	t := c.nextCopy[start] + c.probes
	at := c.slotOf[itemSlot]
	for at < t {
		at += c.total
	}
	return at - start + 1, 1 + c.probes + 1
}

// TestWalkMatchesSlotWalk compares Walk with the slot-by-slot oracle on
// every (start, item) pair. The replication factors include ones that
// leave a remainder (1000 % m != 0): there the last segment is longer
// than the others, and the next copy after it is slot 0 of the next
// cycle.
func TestWalkMatchesSlotWalk(t *testing.T) {
	for _, m := range []int{1, 2, 3, 6, 7, 12} {
		l, err := NewLayout(1000, 111, m, 3)
		if err != nil {
			t.Fatal(err)
		}
		c := newSlotCycle(l)
		bad := 0
		for start := 0; start < l.TotalSlots(); start++ {
			for item := 0; item < l.DataSlots; item++ {
				access, tuning, err := l.Walk(start, item)
				if err != nil {
					t.Fatal(err)
				}
				if wa, wt := c.walk(start, item); access != wa || tuning != wt {
					if bad++; bad <= 3 {
						t.Errorf("m=%d Walk(%d, %d) = %d, %d; slot walk %d, %d", m, start, item, access, tuning, wa, wt)
					}
				}
			}
		}
		if bad > 0 {
			t.Errorf("m=%d: %d of %d (start, item) pairs mismatch", m, bad, l.TotalSlots()*l.DataSlots)
		}
	}
}

func TestWalkTuningIndependentOfStart(t *testing.T) {
	l, err := NewLayout(200, 31, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, tune0, err := l.Walk(0, 50)
	if err != nil {
		t.Fatal(err)
	}
	_, tune1, err := l.Walk(137, 50)
	if err != nil {
		t.Fatal(err)
	}
	if tune0 != tune1 {
		t.Errorf("tuning differs by start: %d vs %d", tune0, tune1)
	}
}

func TestOptimalMEdgeCases(t *testing.T) {
	if OptimalM(0, 10) != 1 || OptimalM(10, 0) != 1 {
		t.Error("degenerate inputs must give m=1")
	}
	if OptimalM(100, 10000) != 1 {
		t.Error("index larger than data must give m=1")
	}
}
