package zipf

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{name: "valid", cfg: Config{N: 10, Theta: 0.95}},
		{name: "valid uniform", cfg: Config{N: 10, Theta: 0}},
		{name: "zero N", cfg: Config{N: 0, Theta: 0.95}, wantErr: true},
		{name: "negative N", cfg: Config{N: -1, Theta: 0.95}, wantErr: true},
		{name: "negative theta", cfg: Config{N: 10, Theta: -0.1}, wantErr: true},
		{name: "negative offset", cfg: Config{N: 10, Offset: -1}, wantErr: true},
		{name: "mod smaller than N", cfg: Config{N: 10, Mod: 5}, wantErr: true},
		{name: "mod equal N", cfg: Config{N: 10, Mod: 10}},
		{name: "mod larger than N", cfg: Config{N: 10, Mod: 20}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(tt.cfg)
			if (err != nil) != tt.wantErr {
				t.Errorf("New(%+v) error = %v, wantErr %v", tt.cfg, err, tt.wantErr)
			}
		})
	}
}

func TestProbSumsToOne(t *testing.T) {
	for _, theta := range []float64{0, 0.5, 0.95, 1.5} {
		d := mustNew(Config{N: 100, Theta: theta})
		sum := 0.0
		for i := 1; i <= 100; i++ {
			sum += d.Prob(i)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("theta=%g: probabilities sum to %g, want 1", theta, sum)
		}
	}
}

func TestProbMonotoneInRank(t *testing.T) {
	d := mustNew(Config{N: 50, Theta: 0.95})
	for i := 1; i < 50; i++ {
		if d.Prob(i) < d.Prob(i+1) {
			t.Fatalf("Prob(%d)=%g < Prob(%d)=%g; Zipf must be non-increasing in rank",
				i, d.Prob(i), i+1, d.Prob(i+1))
		}
	}
}

func TestUniformWhenThetaZero(t *testing.T) {
	d := mustNew(Config{N: 10, Theta: 0})
	for i := 1; i <= 10; i++ {
		if math.Abs(d.Prob(i)-0.1) > 1e-9 {
			t.Errorf("Prob(%d) = %g, want 0.1", i, d.Prob(i))
		}
	}
}

func TestSampleMatchesProb(t *testing.T) {
	d := mustNew(Config{N: 20, Theta: 0.95})
	rng := rand.New(rand.NewSource(42))
	const n = 200000
	counts := make([]int, 21)
	for i := 0; i < n; i++ {
		s := d.Sample(rng)
		if s < 1 || s > 20 {
			t.Fatalf("Sample() = %d out of range 1..20", s)
		}
		counts[s]++
	}
	for i := 1; i <= 20; i++ {
		got := float64(counts[i]) / n
		want := d.Prob(i)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("empirical P(%d) = %.4f, analytic %.4f", i, got, want)
		}
	}
}

func TestOffsetRotatesHotSpot(t *testing.T) {
	d := mustNew(Config{N: 100, Theta: 0.95, Offset: 40})
	// Rank 1 maps to item 41.
	best, bestP := 0, 0.0
	for i := 1; i <= 100; i++ {
		if p := d.Prob(i); p > bestP {
			best, bestP = i, p
		}
	}
	if best != 41 {
		t.Errorf("hottest item = %d, want 41 with offset 40", best)
	}
}

func TestOffsetSamplesStayInModRange(t *testing.T) {
	d := mustNew(Config{N: 100, Theta: 0.95, Offset: 70})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		s := d.Sample(rng)
		if s < 1 || s > 100 {
			t.Fatalf("Sample() = %d, want within 1..100 (offset wraps mod N)", s)
		}
	}
}

func TestOffsetProbPreservesMass(t *testing.T) {
	// Rotation is a bijection: the multiset of probabilities is unchanged.
	f := func(off uint8) bool {
		base := mustNew(Config{N: 30, Theta: 0.95})
		rot := mustNew(Config{N: 30, Theta: 0.95, Offset: int(off)})
		sum := 0.0
		for i := 1; i <= 30; i++ {
			sum += rot.Prob(i)
		}
		if math.Abs(sum-1) > 1e-9 {
			return false
		}
		// Hot item moved by off mod 30 and kept its mass.
		hot := (int(off))%30 + 1
		return math.Abs(rot.Prob(hot)-base.Prob(1)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestProbOutOfRange(t *testing.T) {
	d := mustNew(Config{N: 10, Theta: 0.95, Mod: 20})
	if p := d.Prob(0); p != 0 {
		t.Errorf("Prob(0) = %g, want 0", p)
	}
	if p := d.Prob(21); p != 0 {
		t.Errorf("Prob(21) = %g, want 0", p)
	}
	// Items 11..20 are outside the un-rotated support.
	if p := d.Prob(15); p != 0 {
		t.Errorf("Prob(15) = %g, want 0 (outside N with no offset)", p)
	}
}

func TestSampleDeterministicPerSeed(t *testing.T) {
	d := mustNew(Config{N: 100, Theta: 0.95})
	a := rand.New(rand.NewSource(1))
	b := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		if x, y := d.Sample(a), d.Sample(b); x != y {
			t.Fatalf("sample %d diverged: %d vs %d", i, x, y)
		}
	}
}

// mustNew is New for configurations the tests know to be valid.
func mustNew(cfg Config) *Dist {
	d, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

func BenchmarkSample(b *testing.B) {
	d := mustNew(Config{N: 1000, Theta: 0.95})
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Sample(rng)
	}
}
