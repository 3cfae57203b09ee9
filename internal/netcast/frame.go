package netcast

// Frame is one encoded wire frame, immutable by contract: once a Frame
// exists, no byte of it is ever written again. Immutability — not
// copying — is what makes the sharded broadcaster's zero-copy fan-out
// safe: a single Frame per cycle is referenced by every subscriber
// queue, by the late-joiner greeting slot, and by N shard writers
// concurrently, with no per-subscriber copies and no synchronization on
// the bytes themselves.
//
// The contract is enforced statically: bpush-lint's bufalias analyzer
// knows Frame as an immutable-bytes type, which exempts Frame values
// from the []byte retention check (retaining is safe when nobody
// mutates) and in exchange bans every mutation of a Frame — element
// assignment and in-place append — module-wide.
//
// Construct a Frame with NewFrame (copies a caller-owned buffer) or
// sealFrame (adopts a buffer nobody will write again, used for the
// frames the cycle source encoded).
type Frame []byte

// NewFrame seals a copy of p into a Frame. Use it when p is caller-owned
// and may be reused or mutated after the call — the fault-injection
// station's mangled frames take this path.
func NewFrame(p []byte) Frame {
	return Frame(append([]byte(nil), p...))
}

// sealFrame adopts p as an immutable Frame without copying. The contract
// is that nobody ever writes p's bytes again, not that nobody else
// references them: the station seals the frame cyclesource.GetFrame
// returned, and the source keeps its own read-only reference to it.
func sealFrame(p []byte) Frame {
	return Frame(p)
}
