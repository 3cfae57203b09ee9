package zipf

// Prob returns the probability that Sample returns item (1-based, in
// 1..Mod). Items outside the rotated support have probability 0.
func (d *Dist) Prob(item int) float64 {
	if item < 1 || item > d.mod {
		return 0
	}
	// Invert the rotation to recover the rank.
	rank := (item-1-d.offset%d.mod+d.mod)%d.mod + 1
	if rank > d.n {
		return 0
	}
	if rank == 1 {
		return d.cdf[0]
	}
	return d.cdf[rank-1] - d.cdf[rank-2]
}
