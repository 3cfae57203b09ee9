package broadcast

import (
	"math"
	"testing"

	"bpush/internal/model"
	"bpush/internal/sg"
)

// oraclePositions is the reference slot index: a map from each item to
// the ascending data-segment slots carrying it, built the plainest way.
// FuzzPositions checks the Bcast's lookups against it.
func oraclePositions(entries []Entry) map[model.ItemID][]int {
	positions := make(map[model.ItemID][]int, len(entries))
	for i, e := range entries {
		positions[e.Item] = append(positions[e.Item], i)
	}
	return positions
}

// positionsOracle answers every slot lookup from the reference map.
type positionsOracle struct {
	b         *Bcast
	positions map[model.ItemID][]int
}

func (o positionsOracle) position(item model.ItemID) int {
	if ps, ok := o.positions[item]; ok {
		return ps[0]
	}
	return -1
}

func (o positionsOracle) nextPosition(item model.ItemID, pos int) int {
	for _, p := range o.positions[item] {
		if p >= pos {
			return p
		}
	}
	return -1
}

func (o positionsOracle) oldVersionsOf(item model.ItemID) []OldVersion {
	p := o.position(item)
	if p < 0 || o.b.Entries[p].Overflow < 0 {
		return nil
	}
	off := int(o.b.Entries[p].Overflow)
	end := off
	for end < len(o.b.Overflow) && o.b.Overflow[end].Item == item {
		end++
	}
	return o.b.Overflow[off:end]
}

// Program shapes FuzzPositions draws from.
const (
	shapeFlat     = iota // items 1..n
	shapeChunk           // items k..k+n-1, k > 1
	shapeDisk            // a flat program with hot items repeated
	shapeShuffled        // 1..n in a drawn order
	shapeSingle          // one entry
	shapeTop             // a run ending at math.MaxUint32
	shapeWrap            // a run through math.MaxUint32 and on from 0
	shapeFromZero        // a run starting at item 0
	shapeRaw             // items taken straight from the input
	numShapes
)

// fuzzProgram derives a data segment's item order from the fuzz input.
func fuzzProgram(f *fz) []model.ItemID {
	n := 1 + f.intn(32)
	run := func(first model.ItemID) []model.ItemID {
		p := make([]model.ItemID, n)
		for i := range p {
			p[i] = first + model.ItemID(i) // wraps for shapeWrap only
		}
		return p
	}
	switch f.intn(numShapes) {
	case shapeChunk:
		return run(model.ItemID(2 + f.intn(200)))
	case shapeDisk:
		p := run(1)
		for k := 1 + f.intn(8); k > 0; k-- {
			at := f.intn(len(p) + 1)
			p = append(p[:at], append([]model.ItemID{model.ItemID(1 + f.intn(n))}, p[at:]...)...)
		}
		return p
	case shapeShuffled:
		p := run(1)
		for i := len(p) - 1; i > 0; i-- {
			j := f.intn(i + 1)
			p[i], p[j] = p[j], p[i]
		}
		return p
	case shapeSingle:
		return []model.ItemID{model.ItemID(f.intn(4))}
	case shapeTop:
		return run(model.ItemID(math.MaxUint32 - uint32(n) + 1))
	case shapeWrap:
		n = max(n, 2)
		return run(model.ItemID(math.MaxUint32 - uint32(f.intn(n-1))))
	case shapeFromZero:
		return run(0)
	case shapeRaw:
		p := make([]model.ItemID, n)
		for i := range p {
			p[i] = model.ItemID(f.intn(n + 2))
		}
		return p
	default:
		return run(1)
	}
}

// fuzzPositionsBcast builds a becast over the drawn program through New,
// with overflow groups laid out the way assemble lays them out: emitted at
// an item's first slot, shared by its repeats.
func fuzzPositionsBcast(f *fz, program []model.ItemID) (*Bcast, error) {
	const cyc = model.Cycle(9)
	entries := make([]Entry, len(program))
	var overflow []OldVersion
	group := make(map[model.ItemID]int32)
	for i, item := range program {
		off, seen := group[item]
		if !seen {
			off = -1
			if k := f.intn(4); k > 0 {
				off = int32(len(overflow))
				for g := 0; g < k; g++ {
					overflow = append(overflow, OldVersion{
						Item:    item,
						Version: model.Version{Value: model.Value(100*i + g), Cycle: cyc - model.Cycle(2+g)},
					})
				}
			}
			group[item] = off
		}
		entries[i] = Entry{
			Item:     item,
			Overflow: off,
			Version:  model.Version{Value: model.Value(i), Cycle: cyc - model.Cycle(f.intn(2))},
		}
	}
	return New(cyc, nil, sg.Delta{Cycle: cyc}, entries, overflow, 0, 0)
}

// FuzzPositions checks every slot lookup of a becast built through New
// against the map oracle: flat programs, chunks, broadcast-disk repeats,
// shuffled and single-entry programs, runs at both ends of the item space,
// and arbitrary item lists, queried for present, absent and out-of-range
// items at every position.
func FuzzPositions(f *testing.F) {
	for shape := 0; shape < numShapes; shape++ {
		f.Add([]byte{7, byte(shape), 3, 1, 2, 0, 5, 9, 1, 4, 2, 8, 3})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &fz{data: data}
		program := fuzzProgram(in)
		b, err := fuzzPositionsBcast(in, program)
		if err != nil {
			t.Fatalf("New rejected a well-formed program %v: %v", program, err)
		}
		o := positionsOracle{b: b, positions: oraclePositions(b.Entries)}
		if got := b.Items(); got != len(o.positions) {
			t.Fatalf("program %v: Items() = %d, oracle %d", program, got, len(o.positions))
		}
		if b.TotalItems != len(o.positions) {
			t.Fatalf("program %v: TotalItems = %d, want %d", program, b.TotalItems, len(o.positions))
		}
		// A contiguous run, and only one, takes the arithmetic path.
		contig := true
		for i := 1; i < len(program); i++ {
			contig = contig && program[i] != 0 && program[i] == program[i-1]+1
		}
		if contig != (b.positions == nil) {
			t.Fatalf("program %v: contiguous %v but positions map built = %v", program, contig, b.positions != nil)
		}

		items := []model.ItemID{0, 1, math.MaxUint32, math.MaxUint32 - 1, model.ItemID(in.intn(256))}
		for _, item := range program {
			items = append(items, item, item-1, item+1, item+model.ItemID(len(program)))
		}
		for _, item := range items {
			if got, want := b.Position(item), o.position(item); got != want {
				t.Fatalf("program %v: Position(%d) = %d, oracle %d", program, item, got, want)
			}
			for pos := -1; pos <= len(b.Entries)+1; pos++ {
				if got, want := b.NextPosition(item, pos), o.nextPosition(item, pos); got != want {
					t.Fatalf("program %v: NextPosition(%d, %d) = %d, oracle %d", program, item, pos, got, want)
				}
			}
			got, want := b.OldVersionsOf(item), o.oldVersionsOf(item)
			if len(got) != len(want) {
				t.Fatalf("program %v: OldVersionsOf(%d) = %v, oracle %v", program, item, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("program %v: OldVersionsOf(%d) = %v, oracle %v", program, item, got, want)
				}
			}
			v, err := b.ReadCurrent(item)
			if p := o.position(item); p < 0 {
				if err == nil {
					t.Fatalf("program %v: ReadCurrent(%d) served an item not on air", program, item)
				}
			} else if err != nil || v != b.Entries[p].Version {
				t.Fatalf("program %v: ReadCurrent(%d) = %v, %v, oracle %v", program, item, v, err, b.Entries[p].Version)
			}
		}
	})
}
