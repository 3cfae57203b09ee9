// Package obs is the deterministic observability layer of the
// broadcast-push system: typed trace events stamped with *virtual* time, a
// Recorder interface the protocol layers emit into, composable sinks (ring
// buffer, JSONL stream, aggregator), and a metrics registry (counters,
// gauges, fixed-bucket histograms) the network station exposes over HTTP.
//
// The paper's evaluation (§5) reasons from aggregate abort rates and
// response times; diagnosing *why* a method aborts — which invalidation
// hit which readset item, at what span, on which cycle — needs the
// per-transaction breakdown this package records. Every event is stamped
// with a (cycle, offset) pair instead of a wall-clock time: the broadcast
// cycle is the system's clock, and the offset is a position within it (a
// channel slot, a commit sequence number). A trace is therefore a pure
// function of (seed, plan) and byte-identical across runs — the same
// determinism invariant bpush-lint enforces on the protocol packages
// applies to their instrumentation, with zero suppressions.
//
// Recorders may be nil at every instrumentation site ("not observed",
// zero cost beyond a nil check); Nop is the explicit do-nothing sink whose
// attached overhead is benchmarked (BenchmarkNopRecorder* in internal/sim).
package obs

import "bpush/internal/model"

// Time is a virtual timestamp: the broadcast cycle plus an offset within
// it. The offset's unit depends on the emitting site — a channel slot for
// client-side events, a commit sequence or slot count for server-side
// events — and only needs to be deterministic and monotone within the
// emitting stream.
type Time struct {
	Cycle  uint64 `json:"cycle"`
	Offset int64  `json:"offset"`
}

// At builds a virtual timestamp.
func At(c model.Cycle, offset int64) Time {
	return Time{Cycle: uint64(c), Offset: offset}
}

// Type names an event kind. Values are stable strings: they appear
// verbatim in JSONL traces and are part of the trace format.
type Type string

// Event types.
const (
	// TypeRunBegin opens one client run: it names the method (scheme)
	// every following event of the stream belongs to, until the next
	// TypeRunBegin.
	TypeRunBegin Type = "run-begin"
	// TypeCycleBegin marks a cycle entering service: production started
	// (server streams) or the becast was heard (client streams). Slots
	// carries the becast length when known.
	TypeCycleBegin Type = "cycle-begin"
	// TypeCycleEnd marks the end of a cycle's production; N carries the
	// number of update transactions committed, Slots the becast length.
	TypeCycleEnd Type = "cycle-end"
	// TypeCycleMissed marks a cycle the client did not hear — an injected
	// disconnection, a delivery loss, or an undeclared gap.
	TypeCycleMissed Type = "cycle-missed"
	// TypeRead is one read served to the active read-only transaction;
	// Source says from where ("air", "cache", or "version"), Ser carries
	// the version cycle observed, and T.Offset the serving slot.
	TypeRead Type = "read"
	// TypeInvHit records an invalidation report hitting an item of the
	// active transaction's readset; Reason distinguishes a fatal hit from
	// a versioned-cache marking or a resync verdict.
	TypeInvHit Type = "inv-hit"
	// TypeAbort closes a query that aborted: Reason, Span, Cycles/Slots
	// latency, at the abort cycle.
	TypeAbort Type = "abort"
	// TypeRestart records a read that could not be served at the current
	// channel position and restarts on the next cycle (strictly
	// sequential channel access, §2).
	TypeRestart Type = "restart"
	// TypeCommit closes a committed query: Span, Cycles/Slots latency,
	// Ser the serialization cycle (0 for SGT).
	TypeCommit Type = "commit"
	// TypeSGEdge is a client-side serialization-graph edge coming into
	// existence: the SGT client's precedence edge R -> To on an
	// invalidation (From is "R", the local read-only transaction; To is a
	// TxID string). The producer does not emit it: the server's conflict
	// edges are in every cycle's frame and durable log, and the producer
	// reports them as one TypeSGDelta event per cycle.
	TypeSGEdge Type = "sg-edge"
	// TypeSGDelta closes the producer's serialization-graph delta of one
	// cycle, stamped at (cycle, 0); N carries the number of edges in the
	// delta.
	TypeSGDelta Type = "sg-delta"
	// TypeSGCycleTest is one client-side SGT read test; Hit reports
	// whether admitting the read would close a cycle (and thus aborts).
	TypeSGCycleTest Type = "sg-cycle-test"
	// TypeFault is one injected channel fault; Reason names the fault
	// ("drop", "corrupt", "truncate", "duplicate", "reorder", "burst").
	TypeFault Type = "fault"
	// TypeProducerPhase closes one phase of the producer's commit
	// pipeline; Reason names the phase (PhasePlan, PhasePlace,
	// PhaseExecute) and N carries its unit count — transactions planned,
	// items written, conflict edges emitted — with Slots the number of
	// distinct items the batch touches (plan only). All fields are
	// derived from the batch alone, never from partitioning, so the
	// stream is invariant under the pipeline's worker count.
	TypeProducerPhase Type = "producer-phase"
	// TypeSpan is one tier of the live pipeline's latency attribution:
	// Reason names the tier (SpanRestore ... SpanDrain) and N carries the
	// measured duration in nanoseconds, stamped at (cycle, 0). Span
	// events exist only in the wall-clocked netcast station — its restore
	// and tick loop (the drain tier is a histogram the shard writers feed
	// directly) — never in the simulator, whose causal spans are already
	// carried by the virtual-timed events (producer-phase = commit,
	// cycle-begin/end = on-air, read/staleness = consume). The nanosecond
	// values come exclusively through a Sampler (see WallSampler), so
	// everything downstream of the emitting site handles opaque int64s
	// and stays in bpush-lint's deterministic scope.
	TypeSpan Type = "span"
	// TypeStaleness closes the currency accounting of one committed
	// read: every scheme emits one event per read of a committing
	// transaction, in read order, stamped T = (commit cycle, read
	// index). Ser is the version cycle the read observed, Cycles the
	// version's age at commit (commit - Ser, the paper's currency
	// distance applied per read), Span the commit-to-read span (commit -
	// serving cycle), and N the currency lag at serve time: how many
	// cycles newer the item's then-current on-air version was than the
	// version actually read (0 = the read was current, also 0 when the
	// serving becast did not carry the item, e.g. h-interval chunks).
	// Method names the emitting scheme so events from several clients can
	// share one sink.
	TypeStaleness Type = "staleness"
)

// Latency-attribution tiers, the Reason values of TypeSpan, in pipeline
// order: durable-log restore (once per station start, when a cycle log
// is configured), producer commit (which includes the cycle's one wire
// encode and its durable append), broadcast fan-out (on-air, including
// any channel-side fault mangling), per-shard queue drain. Client-side
// tiers are not measured: no client code path emits a span.
const (
	SpanRestore = "restore"
	SpanCommit  = "commit"
	SpanOnAir   = "on-air"
	SpanDrain   = "drain"
)

// SpanTiers lists the per-cycle tiers in pipeline order — every span
// tier but the once-per-start restore. The operator surfaces (/statusz,
// bpush-inspect lag) render their tier tables in this order.
var SpanTiers = []string{SpanCommit, SpanOnAir, SpanDrain}

// Producer pipeline phases, the Reason values of TypeProducerPhase.
const (
	PhasePlan    = "plan"
	PhasePlace   = "place"
	PhaseExecute = "execute"
)

// Read sources, the {air|cache|version} breakdown of TypeRead.
const (
	SourceAir     = "air"     // the current version, from the data segment
	SourceCache   = "cache"   // any version served from client-local state
	SourceVersion = "version" // an old version, from the overflow segment
)

// Event is one trace record. The struct is flat and float-free so its
// JSON encoding is canonical: same events, same bytes.
type Event struct {
	Type Type `json:"type"`
	T    Time `json:"t"`
	// Method is the scheme name, set on TypeRunBegin.
	Method string `json:"method,omitempty"`
	// Item is the data item involved (0 = none).
	Item uint32 `json:"item,omitempty"`
	// Source is the read source of TypeRead (air|cache|version).
	Source string `json:"source,omitempty"`
	// Reason qualifies aborts, invalidation hits, and faults.
	Reason string `json:"reason,omitempty"`
	// From and To are TxID strings on TypeSGEdge / TypeSGCycleTest.
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	// Span is the number of distinct cycles a query read from.
	Span int `json:"span,omitempty"`
	// Cycles is a query latency in broadcast cycles.
	Cycles int `json:"cycles,omitempty"`
	// Slots is a latency or length in broadcast slots.
	Slots int64 `json:"slots,omitempty"`
	// Ser is a version or serialization cycle.
	Ser uint64 `json:"ser,omitempty"`
	// Hit reports a positive SG cycle test.
	Hit bool `json:"hit,omitempty"`
	// N is a generic count (e.g. transactions committed in a cycle).
	N int64 `json:"n,omitempty"`
}

// Recorder consumes events. Implementations decide whether they are safe
// for concurrent use (Ring and Registry are; JSONL and Aggregator are
// single-stream, like the client runtimes that feed them). A nil Recorder
// at an instrumentation site means "not observed" and must be skipped by
// the emitter; Record on the provided sinks never blocks on I/O other
// than the JSONL writer's own destination.
type Recorder interface {
	Record(e Event)
}

// Nop is the explicit do-nothing Recorder: events are constructed and
// dispatched, then discarded. Its attached overhead on the hot simulation
// path is benchmarked (BenchmarkNopRecorder*) against a bar of <= 2%.
type Nop struct{}

// Record implements Recorder.
func (Nop) Record(Event) {}

// multi fans events out to several sinks in order.
type multi []Recorder

func (m multi) Record(e Event) {
	for _, r := range m {
		r.Record(e)
	}
}

// Tee composes recorders: every event goes to each sink, in argument
// order. Nil and Nop sinks are elided; Tee of nothing useful returns nil
// (the "not observed" recorder).
func Tee(rs ...Recorder) Recorder {
	var out multi
	for _, r := range rs {
		if r == nil {
			continue
		}
		if _, isNop := r.(Nop); isNop {
			continue
		}
		out = append(out, r)
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	default:
		return out
	}
}
