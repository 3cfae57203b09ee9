// Package zipf implements the Zipf access distribution used throughout the
// performance model of Pitoura & Chrysanthis (ICDCS 1999, §5.1): access
// probabilities over a range 1..n proportional to (1/i)^theta, with an
// Offset parameter that rotates the distribution to model disagreement
// between the client read pattern and the server update pattern.
//
// math/rand's Zipf requires s > 1 and a different parameterization, so the
// sampler here is built from an explicit cumulative table with binary
// search, which is exact for any theta >= 0 and fast enough for the ranges
// in the paper (n <= a few thousand).
package zipf

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Dist is a Zipf(theta) distribution over ranks 1..N, optionally rotated by
// Offset within a modulus. It is safe for concurrent use once constructed,
// but sampling requires a caller-provided *rand.Rand (samplers hold no RNG
// state so that simulations stay deterministic under a single seed).
type Dist struct {
	n      int
	offset int
	mod    int
	cdf    []float64 // cdf[i] = P(rank <= i+1)
}

// Config configures a distribution. The zero value is invalid; use New.
type Config struct {
	// N is the number of ranks (items) the distribution spreads over;
	// samples before offsetting are in 1..N.
	N int
	// Theta is the skew parameter; 0 is uniform, larger is more skewed.
	// The paper uses theta = 0.95.
	Theta float64
	// Offset rotates the sampled rank: the returned item is
	// ((rank-1+Offset) mod Mod) + 1. An offset of k "shifts the update
	// distribution k items making them of less interest to the client"
	// (§5.1). Zero leaves ranks unchanged.
	Offset int
	// Mod is the modulus for offset rotation. Defaults to N when zero.
	// It must be >= N so the rotated support stays within 1..Mod.
	Mod int
}

// New builds a distribution from cfg.
func New(cfg Config) (*Dist, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("zipf: N must be positive, got %d", cfg.N)
	}
	if cfg.Theta < 0 {
		return nil, fmt.Errorf("zipf: theta must be non-negative, got %g", cfg.Theta)
	}
	mod := cfg.Mod
	if mod == 0 {
		mod = cfg.N
	}
	if mod < cfg.N {
		return nil, fmt.Errorf("zipf: modulus %d smaller than range %d", mod, cfg.N)
	}
	if cfg.Offset < 0 {
		return nil, fmt.Errorf("zipf: offset must be non-negative, got %d", cfg.Offset)
	}
	d := &Dist{
		n:      cfg.N,
		offset: cfg.Offset % mod,
		mod:    mod,
		cdf:    make([]float64, cfg.N),
	}
	sum := 0.0
	for i := 1; i <= cfg.N; i++ {
		sum += 1.0 / math.Pow(float64(i), cfg.Theta)
		d.cdf[i-1] = sum
	}
	for i := range d.cdf {
		d.cdf[i] /= sum
	}
	// Guard against floating-point drift so the final bucket always wins.
	d.cdf[cfg.N-1] = 1.0
	return d, nil
}

// Sample draws one item in 1..Mod using rng.
func (d *Dist) Sample(rng *rand.Rand) int {
	u := rng.Float64()
	rank := sort.SearchFloat64s(d.cdf, u) + 1
	if rank > d.n {
		rank = d.n
	}
	return (rank-1+d.offset)%d.mod + 1
}
