package sg_test

import (
	"math/rand"
	"testing"

	"bpush/internal/model"
	"bpush/internal/sg"
	"bpush/internal/sgtest"
)

// FuzzGraphVsOracle drives the ring and the map oracle through the same
// stream of random commit-ordered deltas, with missed cycles and a rising
// prune floor, and checks that every cycle test agrees. Targets come from
// any retained cycle and destinations from anywhere, as the all-edges
// reference SGT in core draws them. Half the deltas reach the ring through
// Compile and ApplyCompiled, half through Apply.
func FuzzGraphVsOracle(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(4), uint8(8), uint8(5), uint8(3))
	f.Add(int64(7), uint8(200), uint8(12), uint8(40), uint8(2), uint8(9))
	f.Add(int64(99), uint8(90), uint8(1), uint8(3), uint8(11), uint8(20))
	f.Fuzz(func(t *testing.T, seed int64, cycles, width, density, missEvery, maxSpan uint8) {
		rng := rand.New(rand.NewSource(seed))
		w := int(width%16) + 1
		span := model.Cycle(maxSpan%32) + 1
		ring, oracle := sg.New(), sgtest.New()
		floor := model.Cycle(1)
		pick := func(lo, hi model.Cycle) model.TxID { // a transaction of a cycle in [lo, hi]
			return model.TxID{Cycle: lo + model.Cycle(rng.Intn(int(hi-lo)+1)), Seq: uint32(rng.Intn(w))}
		}
		for c := model.Cycle(1); c <= model.Cycle(cycles); c++ {
			// The floor only rises: when the window would exceed span
			// cycles, or at random (the oldest transaction ended).
			if c-floor >= span || rng.Intn(8) == 0 {
				floor = c - model.Cycle(rng.Intn(int(min(c-floor, span-1))+1))
				ring.PruneBefore(floor)
				oracle.PruneBefore(floor)
			}
			if missEvery > 1 && rng.Intn(int(missEvery)) == 0 {
				continue // a missed cycle: neither graph hears its delta
			}
			d := sg.Delta{Cycle: c}
			for s := 0; s < w; s++ {
				d.Nodes = append(d.Nodes, model.TxID{Cycle: c, Seq: uint32(s)})
			}
			for i := 0; i < int(density); i++ {
				// Sources reach a little below the floor too.
				from, to := pick(max(1, floor-2), c), pick(c, c)
				if from.Before(to) {
					d.Edges = append(d.Edges, sg.Edge{From: from, To: to})
				}
			}
			d.Edges = canonical(d.Edges)
			if err := oracle.Apply(d); err != nil {
				t.Fatal(err)
			}
			if c%2 == 0 {
				cd, err := sg.Compile(d)
				if err != nil {
					t.Fatal(err)
				}
				ring.ApplyCompiled(&cd)
			} else if err := ring.Apply(d); err != nil {
				t.Fatal(err)
			}
			for q := 0; q < 8; q++ {
				targets := make([]model.TxID, rng.Intn(4))
				for i := range targets {
					targets[i] = pick(floor, c)
				}
				dst := pick(max(1, floor-1), c)
				if got, want := ring.ReachableFromAny(targets, dst), oracle.ReachableFromAny(targets, dst); got != want {
					t.Fatalf("cycle %v floor %v: ReachableFromAny(%v, %v) = %v, oracle %v", c, floor, targets, dst, got, want)
				}
			}
		}
	})
}
