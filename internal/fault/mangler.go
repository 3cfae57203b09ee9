package fault

import (
	"fmt"

	"bpush/internal/model"
	"bpush/internal/obs"
)

// Mangler applies a Plan to raw encoded frames before they go on air —
// the channel-side interposition point the netcast station uses, where
// every subscriber shares the damage (a broadcast channel has one air
// interface, not one per listener). Damaged bytes are transmitted as-is;
// it is the receivers' wire checksum and resynchronization that must
// cope.
//
// A Mangler is deterministic from (seed, plan, frame sequence) and is not
// safe for concurrent use; the station serializes Tick calls already.
type Mangler struct {
	l    *ladder
	held [][]byte // copies of a frame delayed by a reorder, owed after the next one
}

// NewMangler builds a frame mangler for the plan, seeded deterministically.
func NewMangler(plan Plan, seed int64) (*Mangler, error) {
	l, err := newLadder(plan, seed)
	if err != nil {
		return nil, err
	}
	return &Mangler{l: l}, nil
}

// Observe attaches a trace recorder: every fault the mangler applies is
// recorded as a fault event naming the fault kind, stamped with the cycle
// of the frame it hit. Nil detaches.
func (m *Mangler) Observe(rec obs.Recorder) { m.l.rec = rec }

// Mangle applies the plan to the encoded frame of cycle c and returns the
// byte sequences to transmit, in order — none when the frame is lost (or
// held back by a reorder), two for a duplicate. A reorder swaps the frame
// with its successor: the successor jumps ahead unfaulted (the swap
// consumed its budget) and the held frame follows it, late.
//
// Mangle never writes frame: a corrupted frame is a fresh copy, and a
// frame held back by a reorder is copied before it outlives the call.
// Every other returned slice aliases frame — an undamaged frame goes
// straight out uncopied, a truncated one as a prefix of it, a duplicate
// as the same slice twice — so the caller may pass a frame it shares
// with other readers, but must copy the results before writing them.
func (m *Mangler) Mangle(c model.Cycle, frame []byte) [][]byte {
	if frame == nil {
		return nil
	}
	f, _ := m.l.draw(c, func() ([]byte, error) { return frame, nil })
	if f.damaged != nil {
		return [][]byte{f.damaged}
	}
	if f.late {
		// Copy before holding: the held frame outlives this call, and the
		// caller owns (and may reuse) the buffer it passed in.
		held := append([]byte(nil), frame...)
		for i := 0; i < f.copies; i++ {
			m.held = append(m.held, held)
		}
		return nil
	}
	var out [][]byte
	for i := 0; i < f.copies; i++ {
		out = append(out, frame)
	}
	out = append(out, m.held...)
	m.held = nil
	return out
}

// String implements fmt.Stringer for logging.
func (m *Mangler) String() string {
	return fmt.Sprintf("fault.Mangler(%s)", m.l.plan)
}
