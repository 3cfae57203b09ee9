package det

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestSortedKeys(t *testing.T) {
	m := map[string]int{"becast": 1, "air": 2, "cycle": 3, "tuner": 4}
	got := SortedKeys(m)
	want := []string{"air", "becast", "cycle", "tuner"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SortedKeys = %v, want %v", got, want)
	}
	if len(SortedKeys(map[int]struct{}{})) != 0 {
		t.Fatal("SortedKeys of empty map must be empty")
	}
}

func TestSortedKeysFresh(t *testing.T) {
	m := map[int]string{1: "a", 2: "b"}
	keys := SortedKeys(m)
	keys[0] = 99
	if _, ok := m[1]; !ok {
		t.Fatal("SortedKeys must not modify the map")
	}
}

// TestSortedKeysStableAcrossRuns drives the point of the package: many
// random maps, every extraction sorted — the property the maprange
// analyzer assumes when it blesses det.SortedKeys call sites.
func TestSortedKeysStableAcrossRuns(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		m := map[uint64]int{}
		for i := 0; i < 200; i++ {
			m[r.Uint64()%5000] = i
		}
		keys := SortedKeys(m)
		if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
			t.Fatalf("trial %d: keys not sorted: %v", trial, keys)
		}
		if len(keys) != len(m) {
			t.Fatalf("trial %d: %d keys for %d entries", trial, len(keys), len(m))
		}
	}
}
