package fault

import (
	"fmt"
	"math/rand"

	"bpush/internal/obs"
)

// Mangler applies a Plan to raw encoded frames before they go on air —
// the channel-side interposition point the netcast station uses, where
// every subscriber shares the damage (a broadcast channel has one air
// interface, not one per listener). Unlike the Injector it never decodes:
// damaged bytes are transmitted as-is and it is the receivers' wire
// checksum and resynchronization that must cope.
//
// A Mangler is deterministic from (seed, plan, frame sequence) and is not
// safe for concurrent use; the station serializes Tick calls already.
type Mangler struct {
	plan Plan
	rng  *rand.Rand
	rec  obs.Recorder

	burstLeft int
	frames    int64  // frames seen, the virtual clock of the channel side
	held      []byte // frame delayed by a reorder, owed after the next one
	stats     Stats
}

// NewMangler builds a frame mangler for the plan, seeded deterministically.
func NewMangler(plan Plan, seed int64) (*Mangler, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &Mangler{plan: plan, rng: rand.New(rand.NewSource(seed))}, nil
}

// Stats returns what the mangler has done to the stream so far.
func (m *Mangler) Stats() Stats { return m.stats }

// Observe attaches a trace recorder: every fault the mangler applies is
// recorded as a fault event naming the fault kind. The mangler never
// decodes frames, so events are stamped with the frame sequence number
// (as the virtual-time offset) rather than a cycle. Nil detaches.
func (m *Mangler) Observe(rec obs.Recorder) { m.rec = rec }

// recordFault emits one fault event for the current frame.
func (m *Mangler) recordFault(kind string) {
	if m.rec != nil {
		m.rec.Record(obs.Event{Type: obs.TypeFault, T: obs.Time{Offset: m.frames}, Reason: kind})
	}
}

// Mangle applies the plan to one encoded frame and returns the byte
// sequences to transmit, in order — zero when the frame is lost (or held
// back by a reorder), two for a duplicate. A reorder swaps the frame with
// its successor: the successor jumps ahead unfaulted (the swap consumed
// its budget) and the held frame follows it, late.
//
// Mangle never writes frame: a corrupted frame is a fresh copy, and a
// frame held back by a reorder is copied before it outlives the call.
// Every other returned slice aliases frame — an undamaged frame goes
// straight out uncopied, a truncated one as a prefix of it, a duplicate
// as the same slice twice — so the caller may pass a frame it shares
// with other readers, but must copy the results before writing them.
func (m *Mangler) Mangle(frame []byte) [][]byte {
	if frame == nil {
		return nil
	}
	if prev := m.held; prev != nil {
		m.held = nil
		m.stats.Delivered += 2
		return [][]byte{frame, prev}
	}
	return m.mangleOne(frame)
}

func (m *Mangler) mangleOne(frame []byte) [][]byte {
	m.frames++
	if m.burstLeft > 0 {
		m.burstLeft--
		m.stats.Burst++
		m.recordFault("burst")
		return nil
	}
	if m.plan.Burst > 0 && m.rng.Float64() < m.plan.Burst {
		m.burstLeft = m.plan.burstLen() - 1
		m.stats.Burst++
		m.recordFault("burst")
		return nil
	}
	if m.plan.Drop > 0 && m.rng.Float64() < m.plan.Drop {
		m.stats.Dropped++
		m.recordFault("drop")
		return nil
	}
	if m.plan.Corrupt > 0 && m.rng.Float64() < m.plan.Corrupt {
		damaged := append([]byte(nil), frame...)
		off := m.rng.Intn(len(damaged))
		flips := 1 + m.rng.Intn(corruptWindow-1)
		for i := 0; i < flips; i++ {
			pos := off + m.rng.Intn(corruptWindow)
			if pos >= len(damaged) {
				pos = len(damaged) - 1
			}
			damaged[pos] ^= 1 << uint(m.rng.Intn(8))
		}
		m.stats.Corrupted++
		m.recordFault("corrupt")
		frame = damaged
	}
	if m.plan.Truncate > 0 && m.rng.Float64() < m.plan.Truncate {
		cut := m.rng.Intn(len(frame))
		m.stats.Truncated++
		m.recordFault("truncate")
		frame = frame[:cut]
	}
	if m.plan.Duplicate > 0 && m.rng.Float64() < m.plan.Duplicate {
		m.stats.Duplicated++
		m.stats.Delivered += 2
		m.recordFault("duplicate")
		return [][]byte{frame, frame}
	}
	if m.plan.Reorder > 0 && m.rng.Float64() < m.plan.Reorder {
		m.stats.Reordered++
		m.recordFault("reorder")
		// Copy before holding: the held frame outlives this call, and the
		// caller owns (and may reuse) the buffer it passed in.
		m.held = append([]byte(nil), frame...)
		return nil
	}
	m.stats.Delivered++
	return [][]byte{frame}
}

// String implements fmt.Stringer for logging.
func (m *Mangler) String() string {
	return fmt.Sprintf("fault.Mangler(%s)", m.plan)
}
