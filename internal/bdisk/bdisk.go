// Package bdisk generates non-flat broadcast programs following the
// broadcast-disk organization of Acharya et al., the §7 extension of
// Pitoura & Chrysanthis: items are partitioned onto "disks" spinning at
// different speeds, so hot items appear several times per becast and cold
// items once, reducing expected access latency for skewed access patterns.
//
// The generation algorithm is the classical one: with disk frequencies
// f_1 >= f_2 >= ... and C = lcm(f_1..f_n) chunks, disk i is split into
// C/f_i chunks and the program interleaves one chunk of every disk per
// minor cycle, C minor cycles per becast.
package bdisk

import (
	"fmt"

	"bpush/internal/broadcast"
	"bpush/internal/model"
)

// Disk is one group of items broadcast with a common frequency.
type Disk struct {
	// Items assigned to this disk.
	Items []model.ItemID
	// Frequency is the relative broadcast frequency (>= 1). An item on
	// a frequency-3 disk appears three times as often as an item on a
	// frequency-1 disk.
	Frequency int
}

// Program builds the broadcast program for the given disks. Every item
// appears Frequency times per major cycle (becast). Items must be unique
// across disks.
func Program(disks []Disk) (broadcast.Program, error) {
	if len(disks) == 0 {
		return nil, fmt.Errorf("bdisk: no disks")
	}
	seen := make(map[model.ItemID]struct{})
	chunks := 1
	for i, d := range disks {
		if d.Frequency < 1 {
			return nil, fmt.Errorf("bdisk: disk %d frequency %d < 1", i, d.Frequency)
		}
		if len(d.Items) == 0 {
			return nil, fmt.Errorf("bdisk: disk %d is empty", i)
		}
		for _, it := range d.Items {
			if _, dup := seen[it]; dup {
				return nil, fmt.Errorf("bdisk: %v assigned to multiple disks", it)
			}
			seen[it] = struct{}{}
		}
		chunks = lcm(chunks, d.Frequency)
	}

	// Split disk i into chunks/f_i chunks (padding the last chunk by
	// wrapping, like the classical algorithm pads with empty slots; we
	// wrap to keep slots data-carrying).
	type diskChunks struct {
		parts [][]model.ItemID
	}
	split := make([]diskChunks, len(disks))
	for i, d := range disks {
		n := chunks / d.Frequency
		parts := make([][]model.ItemID, n)
		per := (len(d.Items) + n - 1) / n
		for p := 0; p < n; p++ {
			lo := p * per
			hi := lo + per
			if lo >= len(d.Items) {
				// Wrap: repeat the head so every chunk carries data.
				parts[p] = d.Items[:min(per, len(d.Items))]
				continue
			}
			if hi > len(d.Items) {
				hi = len(d.Items)
			}
			parts[p] = d.Items[lo:hi]
		}
		split[i] = diskChunks{parts: parts}
	}

	var prog broadcast.Program
	for minor := 0; minor < chunks; minor++ {
		for i := range disks {
			part := split[i].parts[minor%len(split[i].parts)]
			prog = append(prog, part...)
		}
	}
	return prog, nil
}

// TwoDisk is a convenience constructor: the hot items (1..hot) on a disk
// spinning freq times faster than the cold disk carrying hot+1..dbSize.
func TwoDisk(dbSize, hot, freq int) (broadcast.Program, error) {
	if hot <= 0 || hot >= dbSize {
		return nil, fmt.Errorf("bdisk: hot partition %d outside 1..%d", hot, dbSize-1)
	}
	hotItems := make([]model.ItemID, hot)
	for i := range hotItems {
		hotItems[i] = model.ItemID(i + 1)
	}
	coldItems := make([]model.ItemID, dbSize-hot)
	for i := range coldItems {
		coldItems[i] = model.ItemID(hot + i + 1)
	}
	return Program([]Disk{
		{Items: hotItems, Frequency: freq},
		{Items: coldItems, Frequency: 1},
	})
}

func lcm(a, b int) int { return a / gcd(a, b) * b }

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
