// Package client implements the client runtime of the broadcast-push
// system: the tuner that follows the channel position by position, the
// think-time pacing of the §5.1 performance model, and the read loop that
// drives a core.Scheme through its ServeLocal/ServeChannel protocol —
// including waiting for the next cycle when a needed slot has already gone
// by (access to the broadcast is strictly sequential) and injecting
// disconnections.
package client

import (
	"errors"
	"fmt"
	"math/rand"

	"bpush/internal/broadcast"
	"bpush/internal/core"
	"bpush/internal/model"
	"bpush/internal/obs"
)

// Feed supplies consecutive becasts: the client's view of the channel. The
// simulator implements it by driving the server; the network client
// implements it by decoding frames from a TCP stream.
//
// The client runtime is a pure pass-through: becasts flow from the feed
// to the scheme untouched, and the scheme reads each cycle's control
// information in place, whether the producer primed the becast or it was
// decoded from a network frame. Either way the runtime's behavior is
// identical.
type Feed interface {
	// Next blocks until the next becast and returns it.
	Next() (*broadcast.Bcast, error)
}

// Event is one delivery observed on the channel: either a becast heard
// intact, or a cycle known to be lost (dropped, corrupted, or truncated in
// delivery). A loss still occupies air time — the channel keeps
// broadcasting whether or not this client can decode it — so a loss event
// carries the lost cycle's length in slots.
type Event struct {
	// Bcast is the becast heard, nil when the cycle was lost.
	Bcast *broadcast.Bcast
	// Cycle identifies the lost cycle (only meaningful when Bcast is nil).
	Cycle model.Cycle
	// Slots is the air time, in broadcast slots, the lost cycle occupied.
	Slots int
}

// EventFeed is a Feed that can also report losses it detects itself — the
// fault-injection layer and hardened tuners implement it. Feeds that
// cannot tell (a plain Feed) are adapted; the client then infers losses
// from gaps in the cycle numbering.
type EventFeed interface {
	// NextEvent blocks until the next delivery event.
	NextEvent() (Event, error)
}

// feedEvents adapts a plain Feed: every delivery is a heard becast; losses
// are left for the client's gap detection to infer.
type feedEvents struct{ f Feed }

func (a feedEvents) NextEvent() (Event, error) {
	b, err := a.f.Next()
	if err != nil {
		return Event{}, err
	}
	return Event{Bcast: b}, nil
}

// Config configures a client runtime.
type Config struct {
	// ThinkTime is the number of broadcast slots the client waits before
	// issuing each read request (§5.1).
	ThinkTime int
	// DisconnectProb is the per-cycle probability that the client misses
	// the becast entirely (sleeps through it). Zero disables
	// disconnection injection.
	DisconnectProb float64
	// Seed feeds the disconnection RNG.
	Seed int64
	// Recorder, when non-nil, receives the client's trace events: the run
	// beginning, every cycle heard or missed, read-loop restarts, and the
	// commit/abort outcome of each query. Nil means not observed.
	Recorder obs.Recorder
}

func (c Config) validate() error {
	if c.ThinkTime < 0 {
		return fmt.Errorf("client: negative think time %d", c.ThinkTime)
	}
	if c.DisconnectProb < 0 || c.DisconnectProb >= 1 {
		return fmt.Errorf("client: disconnect probability %g outside [0, 1)", c.DisconnectProb)
	}
	return nil
}

// QueryResult reports the outcome of one read-only transaction.
type QueryResult struct {
	// Committed reports whether the query committed; AbortReason holds
	// the scheme's reason otherwise.
	Committed   bool
	AbortReason string
	// Info is the scheme's commit record (only valid when Committed).
	Info core.CommitInfo
	// LatencyCycles is the number of broadcast cycles the query was
	// active in, from its first read request to commit/abort.
	LatencyCycles int
	// Span is the number of distinct cycles the query read data from.
	Span int
	// Read-source breakdown.
	Reads, CacheReads, BroadcastReads, OverflowReads int
	// LatencySlots is the same interval measured in broadcast slots —
	// the metric to use when comparing organizations whose cycles have
	// different lengths (broadcast disks, multiversion overflow).
	LatencySlots int64
	// MissedCycles counts cycles the client slept through while the
	// query was active.
	MissedCycles int
}

// Client drives one scheme over one channel feed. Not safe for concurrent
// use.
type Client struct {
	cfg    Config
	scheme core.Scheme
	events EventFeed
	rng    *rand.Rand

	cur      *broadcast.Bcast
	pos      int
	curLen   int         // slots of the cycle currently on air (heard or not)
	slotBase int64       // slots of all fully elapsed cycles
	last     model.Cycle // last cycle accounted (heard, missed, or skipped)
	missed   int         // cycles slept through or lost in delivery (total)
	stale    int         // duplicate or late frames discarded (total)
}

// New creates a client and tunes in to the first becast of the feed. A
// feed that also implements EventFeed is used directly, so its loss
// reports reach the client.
func New(scheme core.Scheme, feed Feed, cfg Config) (*Client, error) {
	if feed == nil {
		return nil, fmt.Errorf("client: nil feed")
	}
	if ef, ok := feed.(EventFeed); ok {
		return NewFromEvents(scheme, ef, cfg)
	}
	return NewFromEvents(scheme, feedEvents{feed}, cfg)
}

// NewFromEvents creates a client over an event feed — a channel view that
// reports losses explicitly (the fault-injection layer, hardened tuners) —
// and tunes in to its first heard becast.
func NewFromEvents(scheme core.Scheme, events EventFeed, cfg Config) (*Client, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if scheme == nil || events == nil {
		return nil, fmt.Errorf("client: nil scheme or feed")
	}
	c := &Client{cfg: cfg, scheme: scheme, events: events}
	if cfg.DisconnectProb > 0 {
		c.rng = rand.New(rand.NewSource(cfg.Seed))
	}
	c.record(obs.Event{Type: obs.TypeRunBegin, Method: scheme.Name()})
	if err := c.nextCycle(); err != nil {
		return nil, fmt.Errorf("client: tune in: %w", err)
	}
	return c, nil
}

// record emits e when a recorder is attached.
func (c *Client) record(e obs.Event) {
	if c.cfg.Recorder != nil {
		c.cfg.Recorder.Record(e)
	}
}

// Cycle returns the cycle the client is currently listening to.
func (c *Client) Cycle() model.Cycle { return c.cur.Cycle }

// abs returns the absolute channel time in slots: all fully elapsed
// cycles plus the position within the current one.
func (c *Client) abs() int64 { return c.slotBase + int64(c.pos) }

// Scheme returns the scheme the client drives.
func (c *Client) Scheme() core.Scheme { return c.scheme }

// Items returns the number of distinct items on the becast the client is
// listening to — the self-descriptive part of the broadcast that lets a
// freshly tuned-in client size its workload.
func (c *Client) Items() int { return c.cur.Items() }

// nextCycle consumes delivery events until a becast is actually heard,
// applying disconnection injection and the receive-path hardening: cycles
// the feed reports lost — and cycles silently missing from the numbering —
// are downgraded to misses, and duplicate or late (reordered) frames are
// discarded, so the scheme always sees a strictly ascending cycle stream
// with every gap declared through MissCycle.
func (c *Client) nextCycle() error {
	for {
		ev, err := c.events.NextEvent()
		if err != nil {
			return err
		}
		if ev.Bcast == nil {
			// The feed itself reports the loss: the cycle went by on air
			// but could not be heard (dropped, corrupted, truncated).
			c.slotBase += int64(c.curLen)
			c.curLen = ev.Slots
			c.missed++
			if ev.Cycle > c.last {
				c.last = ev.Cycle
			}
			c.record(obs.Event{Type: obs.TypeCycleMissed, T: obs.At(ev.Cycle, 0), Reason: "lost"})
			if err := c.scheme.MissCycle(ev.Cycle); err != nil {
				return err
			}
			continue
		}
		b := ev.Bcast
		if c.last != 0 && b.Cycle <= c.last {
			// Duplicate or late frame: the cycle is already accounted
			// (heard, missed, or skipped), so this copy is a delivery
			// artifact and carries no new air time.
			c.stale++
			continue
		}
		if c.last != 0 {
			// Undeclared gap: cycles vanished without a loss report (a
			// lossy tuner, reordering). Downgrade each to a miss; the
			// lost lengths are unknown, so air time is estimated with the
			// length of the frame that revealed the gap.
			for gap := c.last + 1; gap < b.Cycle; gap++ {
				c.slotBase += int64(c.curLen)
				c.curLen = b.Len()
				c.missed++
				c.record(obs.Event{Type: obs.TypeCycleMissed, T: obs.At(gap, 0), Reason: "gap"})
				if err := c.scheme.MissCycle(gap); err != nil {
					return err
				}
			}
		}
		c.slotBase += int64(c.curLen)
		c.curLen = b.Len()
		c.last = b.Cycle
		if c.rng != nil && c.rng.Float64() < c.cfg.DisconnectProb {
			c.missed++
			c.record(obs.Event{Type: obs.TypeCycleMissed, T: obs.At(b.Cycle, 0), Reason: "disconnected"})
			if err := c.scheme.MissCycle(b.Cycle); err != nil {
				return err
			}
			continue
		}
		c.record(obs.Event{Type: obs.TypeCycleBegin, T: obs.At(b.Cycle, 0), Slots: int64(b.Len())})
		if err := c.scheme.NewCycle(b); err != nil {
			return err
		}
		c.cur = b
		c.pos = 0
		return nil
	}
}

// Missed returns the total number of cycles the client did not hear —
// injected disconnections plus cycles lost in delivery.
func (c *Client) Missed() int { return c.missed }

// Stale returns the total number of duplicate or late frames the client
// discarded.
func (c *Client) Stale() int { return c.stale }

// think advances the channel position by the configured think time,
// crossing cycle boundaries as needed.
func (c *Client) think() error {
	c.pos += c.cfg.ThinkTime
	for c.pos >= c.cur.Len() {
		over := c.pos - c.cur.Len()
		if err := c.nextCycle(); err != nil {
			return err
		}
		c.pos = over
	}
	return nil
}

// RunQuery executes one read-only transaction over the given items, in
// request order. It returns the query outcome; the error return is
// reserved for infrastructure failures (feed errors, unknown items), not
// transaction aborts.
func (c *Client) RunQuery(items []model.ItemID) (QueryResult, error) {
	if err := c.scheme.Begin(); err != nil {
		return QueryResult{}, fmt.Errorf("client: begin: %w", err)
	}
	var res QueryResult
	startCycle := c.cur.Cycle
	startSlots := c.abs()
	missedBefore := c.missed
	// The cycle on air only ascends within a query, so the distinct
	// cycles read from are counted as changes of the last one.
	var lastRead model.Cycle
	readAt := func() {
		if res.Span == 0 || c.cur.Cycle != lastRead {
			lastRead = c.cur.Cycle
			res.Span++
		}
	}

	finish := func() QueryResult {
		res.LatencyCycles = int(c.cur.Cycle-startCycle) + 1
		res.LatencySlots = c.abs() - startSlots
		res.MissedCycles = c.missed - missedBefore
		return res
	}
	abort := func(err error) QueryResult {
		var ae *core.AbortError
		if errors.As(err, &ae) {
			res.AbortReason = ae.Reason
		} else {
			res.AbortReason = err.Error()
		}
		c.scheme.Abort()
		r := finish()
		c.record(obs.Event{
			Type:   obs.TypeAbort,
			T:      obs.At(c.cur.Cycle, int64(c.pos)),
			Reason: r.AbortReason,
			Span:   r.Span,
			Cycles: r.LatencyCycles,
			Slots:  r.LatencySlots,
		})
		return r
	}

	for _, item := range items {
		if err := c.think(); err != nil {
			c.scheme.Abort()
			return QueryResult{}, err
		}
		for {
			_, ok, err := c.scheme.ServeLocal(item)
			if errors.Is(err, core.ErrAborted) {
				return abort(err), nil
			}
			if err != nil {
				c.scheme.Abort()
				return QueryResult{}, err
			}
			if ok {
				res.Reads++
				res.CacheReads++
				readAt()
				break
			}
			r, slot, err := c.scheme.ServeChannel(item, c.pos)
			if errors.Is(err, core.ErrNextCycle) {
				// The slot has gone by (or the item is in a later chunk):
				// the read attempt restarts on the next cycle.
				c.record(obs.Event{
					Type:   obs.TypeRestart,
					T:      obs.At(c.cur.Cycle, int64(c.pos)),
					Item:   uint32(item),
					Reason: "next-cycle",
				})
				if err := c.nextCycle(); err != nil {
					c.scheme.Abort()
					return QueryResult{}, err
				}
				continue
			}
			if errors.Is(err, core.ErrAborted) {
				return abort(err), nil
			}
			if err != nil {
				c.scheme.Abort()
				return QueryResult{}, err
			}
			res.Reads++
			switch r.Source {
			case core.SourceOverflow:
				res.OverflowReads++
			default:
				res.BroadcastReads++
			}
			readAt()
			c.pos = slot + 1
			break
		}
	}
	info, err := c.scheme.Commit()
	if errors.Is(err, core.ErrAborted) {
		return abort(err), nil
	}
	if err != nil {
		return QueryResult{}, fmt.Errorf("client: commit: %w", err)
	}
	res.Committed = true
	res.Info = info
	r := finish()
	c.record(obs.Event{
		Type:   obs.TypeCommit,
		T:      obs.At(info.CommitCycle, int64(c.pos)),
		Span:   r.Span,
		Cycles: r.LatencyCycles,
		Slots:  r.LatencySlots,
		Ser:    uint64(info.SerializationCycle),
	})
	return r, nil
}
