// Package det provides deterministic accessors for Go maps. Map iteration
// order is randomized per run, so any place where iteration order can
// escape into a slice, an error message, or any other output breaks the
// repo's replayability invariant: same (seed, plan) ⇒ byte-identical
// results. These helpers are the blessed way for the deterministic
// packages to walk a map — they extract the keys and sort them before the
// order can be observed. The bpush-lint dettaint analyzer enforces their
// use everywhere the deterministic entry points reach (see DESIGN.md,
// "Enforced invariants").
package det

import (
	"cmp"
	"slices"
)

// SortedKeys returns m's keys in ascending order. The result is a fresh
// slice; m is not modified. Per-cycle hot paths should prefer
// AppendSortedKeys with owner-retained scratch.
func SortedKeys[M ~map[K]V, K cmp.Ordered, V any](m M) []K {
	//lint:allow hotalloc per-cycle walks use AppendSortedKeys with owner scratch; the hot-graph callers left on this entry are per-gap resync paths
	return AppendSortedKeys(make([]K, 0, len(m)), m)
}

// AppendSortedKeys appends m's keys to dst in ascending order and returns
// the extended slice — the scratch-reuse variant of SortedKeys: pass an
// owner-retained dst[:0] and the walk allocates nothing once dst has
// reached steady-state capacity. Only the appended tail is sorted; keys
// already in dst are left untouched.
func AppendSortedKeys[M ~map[K]V, K cmp.Ordered, V any](dst []K, m M) []K {
	start := len(dst)
	for k := range m {
		//lint:allow hotalloc appends into caller-retained scratch; capacity amortizes to the map's steady-state size
		dst = append(dst, k)
	}
	slices.Sort(dst[start:])
	return dst
}
