// Package fault injects deterministic, replayable delivery faults into a
// broadcast channel. The paper's disconnection analysis (§4.1, §5.2.2)
// models exactly one failure mode — a client cleanly sleeping through
// whole cycles — but a real push channel also delivers corrupted,
// truncated, duplicated, and reordered frames, and suffers burst outages.
// A Plan names the per-frame probability of each, one ladder draws every
// decision from one seeded RNG, and any run replays from (plan, seed)
// alone.
//
// The faults damage a cycle's real wire frame, the bytes a station airs,
// at two interposition points that share the ladder. A Mangler damages
// the frames a netcast station puts on air, where every subscriber
// shares the damage. An Injector gives one simulated client the same
// channel: it runs the ladder over a feed and decodes each frame the
// ladder damaged, so a frame the checksum rejects reaches the client as a
// lost cycle, never as data, and the client's downgrade-to-miss recovery
// absorbs it. With the same plan and seed, the Injector's events are what
// a tuner decodes from the Mangler's output.
//
// A zero Plan is free: the ladder draws nothing and every frame passes
// untouched. A Plan with only Drop set draws exactly one random number per
// cycle from the same generator construction the client runtime's
// DisconnectProb uses, so a drop-only plan with the client's seed
// reproduces the DisconnectProb schedule byte for byte — the fault layer
// strictly subsumes the paper's model.
package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"bpush/internal/model"
	"bpush/internal/obs"
)

// DefaultBurstLen is the burst outage length used when a Plan enables
// Burst without setting BurstLen.
const DefaultBurstLen = 3

// Plan configures the per-cycle fault probabilities of a channel. Each
// field is the probability, in [0, 1], that the fault hits a given frame;
// faults whose probability is zero consume no randomness, so extending a
// plan never perturbs the decision stream of the faults already in it.
//
// The per-frame decision order is fixed: burst, drop, corrupt, truncate,
// duplicate, reorder. A frame consumed by an earlier fault is not offered
// to later ones: a lost, corrupted or truncated frame ends its draws. A
// duplicated frame may still be reordered, and both copies then arrive
// late. The frame after a reordered one is swapped ahead with no draws.
type Plan struct {
	// Drop loses the whole frame: the cycle goes by unheard.
	Drop float64
	// Corrupt flips a burst of bits inside a 32-byte window of the
	// encoded frame. The checksum rejects the damaged frame and the cycle
	// is lost (in the unlikely event the flips cancel out and the frame
	// still checks out, it is delivered).
	Corrupt float64
	// Truncate cuts the encoded frame short at a random byte; the decode
	// failure loses the cycle.
	Truncate float64
	// Duplicate delivers the frame a second time immediately after the
	// first. Receivers must discard the copy.
	Duplicate float64
	// Reorder swaps the frame with its successor: the successor arrives
	// first, then the frame, late. Receivers see the late frame as stale.
	Reorder float64
	// Burst starts an outage of BurstLen consecutive lost cycles
	// (including the triggering one) — the burst-error model of mobile
	// channels, distinct from independent per-cycle drops.
	Burst float64
	// BurstLen is the outage length in cycles; 0 means DefaultBurstLen.
	BurstLen int
}

// IsZero reports whether the plan injects no faults at all.
func (p Plan) IsZero() bool {
	return p.Drop == 0 && p.Corrupt == 0 && p.Truncate == 0 &&
		p.Duplicate == 0 && p.Reorder == 0 && p.Burst == 0
}

// Validate checks every probability and the burst length.
func (p Plan) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"drop", p.Drop},
		{"corrupt", p.Corrupt},
		{"truncate", p.Truncate},
		{"duplicate", p.Duplicate},
		{"reorder", p.Reorder},
		{"burst", p.Burst},
	} {
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("fault: %s probability %g outside [0, 1]", f.name, f.v)
		}
	}
	if p.BurstLen < 0 {
		return fmt.Errorf("fault: negative burst length %d", p.BurstLen)
	}
	return nil
}

// burstLen returns the effective outage length.
func (p Plan) burstLen() int {
	if p.BurstLen <= 0 {
		return DefaultBurstLen
	}
	return p.BurstLen
}

// String renders the plan in the spec format ParsePlan accepts.
func (p Plan) String() string {
	if p.IsZero() {
		return "none"
	}
	var parts []string
	add := func(k string, v float64) {
		if v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", k, v))
		}
	}
	add("drop", p.Drop)
	add("corrupt", p.Corrupt)
	add("truncate", p.Truncate)
	add("duplicate", p.Duplicate)
	add("reorder", p.Reorder)
	add("burst", p.Burst)
	if p.Burst != 0 && p.BurstLen != 0 {
		parts = append(parts, fmt.Sprintf("burstlen=%d", p.BurstLen))
	}
	return strings.Join(parts, ",")
}

// plans is the shipped registry of named fault plans — the adversarial
// channel conditions the chaos suite certifies every scheme against.
var plans = map[string]Plan{
	// drops: independent whole-cycle losses, the paper's own model made
	// adversarially frequent.
	"drops": {Drop: 0.1},
	// noise: bit errors and framing damage; every hit must be caught by
	// the checksum and downgraded to a miss.
	"noise": {Corrupt: 0.05, Truncate: 0.02},
	// bursty: correlated outages, the §5.2.2 long-disconnection regime.
	"bursty": {Burst: 0.02, BurstLen: 4},
	// jitter: delivery-path artifacts only — duplicated and reordered
	// frames, no losses at the source.
	"jitter": {Duplicate: 0.05, Reorder: 0.05},
	// chaos: everything at once.
	"chaos": {Drop: 0.04, Corrupt: 0.03, Truncate: 0.02, Duplicate: 0.03, Reorder: 0.03, Burst: 0.01, BurstLen: 3},
}

// Plans returns the shipped named plans, keyed by name.
func Plans() map[string]Plan {
	out := make(map[string]Plan, len(plans))
	for k, v := range plans {
		out[k] = v
	}
	return out
}

// PlanNames returns the shipped plan names, sorted.
func PlanNames() []string {
	names := make([]string, 0, len(plans))
	for k := range plans {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// ParsePlan turns a CLI argument into a Plan: either a shipped plan name
// ("chaos"), "none" for the zero plan, or a spec of comma-separated
// key=value pairs ("drop=0.05,corrupt=0.01,burstlen=4") with the keys
// drop, corrupt, truncate, duplicate, reorder, burst, burstlen.
func ParsePlan(s string) (Plan, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "none" {
		return Plan{}, nil
	}
	if p, ok := plans[s]; ok {
		return p, nil
	}
	var p Plan
	for _, kv := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return Plan{}, fmt.Errorf("fault: bad plan %q: %q is neither a named plan (%s) nor key=value",
				s, kv, strings.Join(PlanNames(), ", "))
		}
		if key == "burstlen" {
			n, err := strconv.Atoi(val)
			if err != nil {
				return Plan{}, fmt.Errorf("fault: bad burstlen %q: %w", val, err)
			}
			p.BurstLen = n
			continue
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return Plan{}, fmt.Errorf("fault: bad value %q for %s: %w", val, key, err)
		}
		switch key {
		case "drop":
			p.Drop = f
		case "corrupt":
			p.Corrupt = f
		case "truncate":
			p.Truncate = f
		case "duplicate":
			p.Duplicate = f
		case "reorder":
			p.Reorder = f
		case "burst":
			p.Burst = f
		default:
			return Plan{}, fmt.Errorf("fault: unknown plan key %q", key)
		}
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// Stats counts what a fault layer did to the stream, per cause. Each frame
// counts once: as Delivered (twice if duplicated) or under one loss cause.
// Duplicated and Reordered mark delivered frames.
type Stats struct {
	Delivered  int64 // frames passed through intact (duplicates included)
	Dropped    int64 // frames lost to independent drops
	Corrupted  int64 // frames hit by bit corruption (lost unless the flips cancel out)
	Truncated  int64 // frames lost to truncation
	Burst      int64 // frames lost to burst outages
	Duplicated int64 // frames delivered twice
	Reordered  int64 // frames delivered after their successor
}

// Lost returns the total number of cycles the layer made unhearable.
func (s Stats) Lost() int64 { return s.Dropped + s.Corrupted + s.Truncated + s.Burst }

// corruptWindow is the span, in bytes, of one bit-corruption burst.
const corruptWindow = 32

// ladder is a Plan's faults over one channel, decided frame by frame from
// one seeded RNG. Its draw method is the only code in this package that
// decides a fault: the Mangler airs its verdicts and the Injector decodes
// them, so both give the same channel for the same (plan, seed).
type ladder struct {
	plan      Plan
	rng       *rand.Rand
	rec       obs.Recorder
	burstLeft int  // remaining cycles of the active burst outage
	swapping  bool // the last frame was reordered behind the next one
	stats     Stats
}

// newLadder seeds a ladder. The RNG construction matches the client
// runtime's disconnection RNG, so a drop-only plan with the client's seed
// replays its DisconnectProb schedule exactly.
func newLadder(plan Plan, seed int64) (*ladder, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &ladder{plan: plan, rng: rand.New(rand.NewSource(seed))}, nil
}

// fate is the ladder's verdict on one frame.
type fate struct {
	copies int  // times the frame goes out: 0 (lost), 1, or 2 (duplicated)
	late   bool // reordered: the copies go out after the next frame
	// damaged, when non-nil, is a corrupted or truncated frame that goes
	// out once instead of the frame.
	damaged []byte
}

// draw decides every fault for the frame of cycle c, in the Plan's order,
// counts the frame once in the stats, and records each fault it applies
// as a fault event stamped with c. frame fetches the frame's bytes; draw
// calls it only to corrupt or truncate them, and never writes them: a
// corrupted frame is a fresh copy, a truncated one a prefix. The frame
// after a reordered one passes with no draws, and frame may then be nil.
func (l *ladder) draw(c model.Cycle, frame func() ([]byte, error)) (fate, error) {
	if l.swapping {
		l.swapping = false
		l.stats.Delivered++
		return fate{copies: 1}, nil
	}
	hit := func(p float64) bool { return p > 0 && l.rng.Float64() < p }
	fault := func(n *int64, kind string) {
		*n++
		if l.rec != nil {
			l.rec.Record(obs.Event{Type: obs.TypeFault, T: obs.At(c, 0), Reason: kind})
		}
	}
	if l.burstLeft > 0 {
		l.burstLeft--
		fault(&l.stats.Burst, "burst")
		return fate{}, nil
	}
	if hit(l.plan.Burst) {
		l.burstLeft = l.plan.burstLen() - 1
		fault(&l.stats.Burst, "burst")
		return fate{}, nil
	}
	if hit(l.plan.Drop) {
		fault(&l.stats.Dropped, "drop")
		return fate{}, nil
	}
	if corrupt := hit(l.plan.Corrupt); corrupt || hit(l.plan.Truncate) {
		f, err := frame()
		if err != nil {
			return fate{}, err
		}
		if !corrupt {
			fault(&l.stats.Truncated, "truncate")
			return fate{copies: 1, damaged: f[:l.rng.Intn(len(f))]}, nil
		}
		damaged := append([]byte(nil), f...)
		off := l.rng.Intn(len(damaged))
		flips := 1 + l.rng.Intn(corruptWindow-1)
		for i := 0; i < flips; i++ {
			pos := off + l.rng.Intn(corruptWindow)
			if pos >= len(damaged) {
				pos = len(damaged) - 1
			}
			damaged[pos] ^= 1 << uint(l.rng.Intn(8))
		}
		fault(&l.stats.Corrupted, "corrupt")
		return fate{copies: 1, damaged: damaged}, nil
	}
	v := fate{copies: 1}
	if hit(l.plan.Duplicate) {
		v.copies = 2
		fault(&l.stats.Duplicated, "duplicate")
	}
	if hit(l.plan.Reorder) {
		v.late = true
		l.swapping = true
		fault(&l.stats.Reordered, "reorder")
	}
	l.stats.Delivered += int64(v.copies)
	return v, nil
}
