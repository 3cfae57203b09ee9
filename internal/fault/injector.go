package fault

import (
	"fmt"

	"bpush/internal/broadcast"
	"bpush/internal/client"
	"bpush/internal/obs"
	"bpush/internal/wire"
)

// Feed is a becast feed that can also hand over the wire frame of the
// becast its last Next returned, as a cyclesource.Feed does.
type Feed interface {
	client.Feed
	Frame() ([]byte, error)
}

// Injector interposes a fault Plan between a feed and one client. It
// implements client.EventFeed: it runs the ladder over the feed's frames
// and decodes each frame the ladder damaged, so a frame the wire checksum
// rejects is reported as a lost cycle (with its air time), never as data,
// and the client's downgrade-to-miss recovery — the same machinery that
// handles disconnections — absorbs every fault. Undamaged, duplicated and
// reordered frames reach the client as the feed's own becasts, with no
// decode; the client runtime's staleness filter discards the copies and
// the late frames.
//
// The event stream is a deterministic function of (inner stream, plan,
// seed). An Injector is single-consumer, like the feeds it wraps.
type Injector struct {
	inner Feed
	l     *ladder
	owed  []*broadcast.Bcast // deliveries owed before pulling the inner feed
}

var _ client.EventFeed = (*Injector)(nil)

// New wraps feed with the plan's faults, all drawn from the given seed.
func New(feed Feed, plan Plan, seed int64) (*Injector, error) {
	if feed == nil {
		return nil, fmt.Errorf("fault: nil feed")
	}
	l, err := newLadder(plan, seed)
	if err != nil {
		return nil, err
	}
	return &Injector{inner: feed, l: l}, nil
}

// Stats returns what the injector has done to the stream so far.
func (in *Injector) Stats() Stats { return in.l.stats }

// Observe attaches a trace recorder: every fault the injector applies is
// recorded as a fault event naming the fault kind, stamped with the cycle
// of the frame it hit. Nil detaches.
func (in *Injector) Observe(rec obs.Recorder) { in.l.rec = rec }

// NextEvent implements client.EventFeed.
func (in *Injector) NextEvent() (client.Event, error) {
	if len(in.owed) > 0 {
		b := in.owed[0]
		in.owed = in.owed[1:]
		return heard(b), nil
	}
	b, err := in.inner.Next()
	if err != nil {
		return client.Event{}, err
	}
	f, err := in.l.draw(b.Cycle, in.inner.Frame)
	if err != nil {
		return client.Event{}, err
	}
	if f.damaged != nil {
		// A frame whose flips cancel out still decodes and is delivered
		// as data: a fresh becast carrying only what the frame's bytes
		// say, read in place like any other.
		got, err := wire.DecodeBytes(f.damaged)
		if err != nil {
			return lost(b), nil
		}
		return heard(got), nil
	}
	if f.copies == 0 {
		return lost(b), nil
	}
	if f.copies == 2 {
		in.owed = append(in.owed, b)
	}
	if f.late {
		if nb, err := in.inner.Next(); err == nil {
			// The successor jumps ahead and b arrives late. The ladder
			// counts the successor and draws nothing for it, so it
			// never calls the nil fetch.
			_, _ = in.l.draw(nb.Cycle, nil)
			in.owed = append(in.owed, b)
			return heard(nb), nil
		}
		// Stream end: nothing to swap with; deliver b normally.
	}
	return heard(b), nil
}

func lost(b *broadcast.Bcast) client.Event {
	return client.Event{Cycle: b.Cycle, Slots: b.Len()}
}

func heard(b *broadcast.Bcast) client.Event {
	return client.Event{Bcast: b}
}
