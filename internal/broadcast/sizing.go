package broadcast

import (
	"fmt"
	"math"
)

// Method names a read-only transaction processing scheme for size
// accounting.
type Method int

// Size-accounted methods.
const (
	MethodInvOnly Method = iota + 1
	MethodMVClustered
	MethodMVOverflow
	MethodSGT
	MethodMVCache
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case MethodInvOnly:
		return "invalidation-only"
	case MethodMVClustered:
		return "multiversion-clustered"
	case MethodMVOverflow:
		return "multiversion-overflow"
	case MethodSGT:
		return "sgt"
	case MethodMVCache:
		return "multiversion-caching"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// SizeParams carries the quantities of the broadcast-size formulas of
// §3.1–§3.3 and §4.2. Sizes are in abstract units; fields expressed in
// bits (transaction IDs, version numbers, pointers) are converted with
// BitsPerUnit. The paper's defaults are D=1000, U=50, S=3, N=10,
// C=5·U/N, k=1 unit, d=5k, one item per bucket.
type SizeParams struct {
	D int // database (broadcast) size in items
	U int // items updated per cycle
	S int // span covered by retained versions
	N int // server transactions per cycle
	C int // operations per server transaction

	Key         float64 // k: key size, units
	Data        float64 // d: size of the other attributes, units
	Bucket      float64 // b: bucket size, units
	BitsPerUnit float64 // how many bits one unit holds (default 32)
}

// DefaultSizeParams returns the paper's default operating point.
func DefaultSizeParams() SizeParams {
	return SizeParams{
		D: 1000, U: 50, S: 3, N: 10, C: 25,
		Key: 1, Data: 5, Bucket: 6, BitsPerUnit: 32,
	}
}

func (p SizeParams) validate() error {
	if p.D <= 0 || p.U < 0 || p.S < 1 || p.N <= 0 || p.C < 0 {
		return fmt.Errorf("broadcast: invalid size params %+v", p)
	}
	if p.Key <= 0 || p.Data < 0 || p.Bucket <= 0 || p.BitsPerUnit <= 0 {
		return fmt.Errorf("broadcast: invalid unit sizes %+v", p)
	}
	return nil
}

// bitsToUnits converts a field of n bits to units.
func (p SizeParams) bitsToUnits(n float64) float64 { return n / p.BitsPerUnit }

// tidUnits is the size of a transaction identifier: log(N) bits, since IDs
// are unique within a cycle (§3.3).
func (p SizeParams) tidUnits() float64 { return p.bitsToUnits(math.Log2(float64(p.N) + 1)) }

// versionUnits is the size of a version number: log(S) bits, broadcasting
// the age of the value rather than its absolute cycle (§3.2).
func (p SizeParams) versionUnits() float64 { return p.bitsToUnits(math.Log2(float64(p.S) + 1)) }

// BaseUnits is the size of the plain broadcast with no concurrency
// control: D items of (k+d) units.
func (p SizeParams) BaseUnits() float64 { return float64(p.D) * (p.Key + p.Data) }

// OverheadUnits returns the additional on-air units the given method
// requires beyond the plain broadcast.
func (p SizeParams) OverheadUnits(m Method) (float64, error) {
	if err := p.validate(); err != nil {
		return 0, err
	}
	u, d, k, v := float64(p.U), p.Data, p.Key, p.versionUnits()
	tid := p.tidUnits()
	switch m {
	case MethodInvOnly:
		// §3.1: the report lists the u updated keys.
		return u * k, nil
	case MethodMVClustered:
		// §3.2, Figure 2a: u(S-1) older versions, each a full record
		// plus a version number, clustered with their items. (The
		// clustered layout additionally needs an on-air index, not
		// charged here.)
		return u*k + u*float64(p.S-1)*(k+d+v), nil
	case MethodMVOverflow:
		// §3.2, Figure 2b: same older versions in overflow buckets,
		// plus a pointer of log(B) bits per item, B = number of
		// overflow buckets.
		overflow := u * float64(p.S-1) * (k + d + v)
		bBuckets := math.Max(1, math.Ceil(overflow/p.Bucket))
		ptr := p.bitsToUnits(math.Log2(bBuckets + 1))
		return u*k + overflow + float64(p.D)*ptr, nil
	case MethodSGT:
		// §3.3: each item is augmented with its last writer
		// (D·log(N) bits), the invalidation report carries keys plus
		// first writers (u(k+log N)), and the graph difference has at
		// most N·c edges of (log N + log S + log N) bits.
		dataAug := float64(p.D) * tid
		report := u * (k + tid)
		delta := float64(p.N*p.C) * (tid + v + tid)
		return dataAug + report + delta, nil
	case MethodMVCache:
		// §4.2: the invalidation-only report plus version numbers
		// broadcast along with every item.
		return u*k + float64(p.D)*v, nil
	default:
		return 0, fmt.Errorf("broadcast: unknown method %v", m)
	}
}

// OverheadBuckets returns the method's overhead in whole buckets.
func (p SizeParams) OverheadBuckets(m Method) (float64, error) {
	u, err := p.OverheadUnits(m)
	if err != nil {
		return 0, err
	}
	return math.Ceil(u / p.Bucket), nil
}

// PercentIncrease returns the broadcast-size increase of the method as a
// percentage of the plain broadcast (the quantity plotted in Figure 7 and
// quoted in Table 1).
func (p SizeParams) PercentIncrease(m Method) (float64, error) {
	u, err := p.OverheadUnits(m)
	if err != nil {
		return 0, err
	}
	return 100 * u / p.BaseUnits(), nil
}
