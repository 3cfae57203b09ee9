// Package netcast delivers becasts over a real network: a Broadcaster
// fans each cycle's frame out to every connected TCP subscriber (push
// delivery — clients never send requests upstream, which is what makes the
// architecture scale with the client population), and a Tuner turns the
// incoming stream back into becasts, implementing client.Feed so the core
// schemes run unchanged over the network.
//
// The broadcaster is sharded: subscribers are hashed across N shards,
// each shard owns one writer goroutine draining bounded per-subscriber
// send queues, and every queue references the cycle's single immutable
// Frame zero-copy. A slow reader never stalls the on-air path — its
// queue overflows and it is evicted instead of blocking, reconnecting
// through the client's existing gap/resync path.
package netcast

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"bpush/internal/broadcast"
	"bpush/internal/obs"
	"bpush/internal/wire"
)

// DefaultShards is the writer-shard count when Config.Shards is zero.
const DefaultShards = 8

// DefaultQueueLen is the per-subscriber bounded send-queue capacity when
// Config.QueueLen is zero: the number of undelivered cycles a subscriber
// may fall behind before it is evicted.
const DefaultQueueLen = 32

// DefaultWriteTimeout bounds one frame write to one subscriber when
// Config.WriteTimeout is zero.
const DefaultWriteTimeout = 5 * time.Second

// Config tunes a broadcaster's fan-out tier.
type Config struct {
	// Shards is the number of writer goroutines; subscribers are hashed
	// across them. Zero means DefaultShards.
	Shards int
	// QueueLen is each subscriber's bounded send-queue capacity in
	// frames. A subscriber whose queue is full when a cycle is broadcast
	// is evicted — push delivery never blocks on a client. Zero means
	// DefaultQueueLen.
	QueueLen int
	// WriteTimeout bounds a single frame write; a write that exceeds it
	// drops the subscriber. Zero means DefaultWriteTimeout.
	WriteTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = DefaultShards
	}
	if c.QueueLen <= 0 {
		c.QueueLen = DefaultQueueLen
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = DefaultWriteTimeout
	}
	return c
}

// Stats counts a broadcaster's traffic. BytesReceived exists to make the
// push model's scalability property observable: clients never send
// requests upstream, so it stays zero no matter how many transactions
// they run.
type Stats struct {
	FramesSent int64
	BytesSent  int64
	// Drops counts subscribers dropped for failed or timed-out writes
	// (dead connections, stalled sockets).
	Drops int64
	// Evictions counts subscribers evicted because their bounded send
	// queue overflowed — readers too slow for the broadcast rate.
	Evictions     int64
	BytesReceived int64
}

// ShardStats is one shard's live counters.
type ShardStats struct {
	// Shard is the shard index.
	Shard int `json:"shard"`
	// Subscribers currently assigned to the shard.
	Subscribers int `json:"subscribers"`
	// QueueDepth is the total number of enqueued-but-unwritten frames
	// across the shard's subscriber queues.
	QueueDepth int64 `json:"queue_depth"`
	// FramesSent and BytesSent count completed subscriber writes.
	FramesSent int64 `json:"frames_sent"`
	BytesSent  int64 `json:"bytes_sent"`
	// Evictions counts queue-overflow evictions; Drops counts write
	// failures and timeouts.
	Evictions int64 `json:"evictions"`
	Drops     int64 `json:"drops"`
}

// writeFunc performs one deadline-bounded frame write. Tests swap the
// broadcaster's instance to inject deterministic stalls.
type writeFunc func(conn net.Conn, timeout time.Duration, f Frame) (int, error)

func deadlineWrite(conn net.Conn, timeout time.Duration, f Frame) (int, error) {
	_ = conn.SetWriteDeadline(time.Now().Add(timeout))
	return conn.Write(f)
}

// qframe is one queue entry: the shared immutable frame plus the
// enqueue timestamp (nanoseconds from the lag sampler) when this
// particular enqueue was sampled, 0 otherwise. The frame itself is still
// shared zero-copy across every queue; only the 8-byte stamp is
// per-subscriber.
type qframe struct {
	f  Frame
	at int64
}

// subscriber is one connected tuner: a connection plus its bounded send
// queue of immutable frames.
type subscriber struct {
	id   uint64
	conn net.Conn
	q    chan qframe
	gone atomic.Bool // removed from its shard; writer skips it
}

// lagSampler is the broadcaster's opt-in wall-clock instrumentation: a
// clock (obs.WallSampler, the lint-pinned entry point), a queue-depth
// histogram fed at enqueue time, and one drain-latency histogram per
// shard fed when the writer completes the sampled frame's write. Only
// subscribers whose id is a multiple of stride are stamped, bounding the
// clock-read and histogram cost at 10k-subscriber fan-outs; the stamped
// subset is id-stable, so the same tuners are tracked cycle after cycle.
// The stride is rounded up to a power of two so the per-subscriber check
// on the fan-out walk is one mask, not a division.
type lagSampler struct {
	now   obs.Sampler
	mask  uint64 // stride-1; stride is a power of two
	depth *obs.Histogram
	drain []*obs.Histogram // indexed by shard
}

// shard is one fan-out partition: the subscribers hashed to it and the
// counters its writer goroutine and the broadcast path maintain.
type shard struct {
	id   int
	subs map[uint64]*subscriber
	wake chan struct{} // cap 1: coalesced writer wakeups

	sent      atomic.Int64
	bytes     atomic.Int64
	queued    atomic.Int64 // enqueued, not yet written (or discarded)
	evictions atomic.Int64
	drops     atomic.Int64
}

// Broadcaster accepts subscribers and pushes frames to all of them.
type Broadcaster struct {
	ln  net.Listener
	cfg Config

	// mu guards registration, the shard maps, last, and closed. Holding
	// it across both the last-frame update and the shard enqueues makes
	// the late-joiner greeting exactly-once: a subscriber either joins
	// before a broadcast (and receives it through its queue) or after
	// (and receives it as the greeting), never both or neither.
	mu     sync.Mutex
	shards []*shard
	last   Frame // most recent frame; greets new subscribers
	nextID uint64
	closed bool

	stop chan struct{}
	wg   sync.WaitGroup

	writeFrame writeFunc
	// sampler is the opt-in lag instrumentation (SampleLag). Atomic so
	// the shard writers, which start before wiring completes, read it
	// without holding mu.
	sampler atomic.Pointer[lagSampler]

	framesSent    atomic.Int64
	bytesSent     atomic.Int64
	drops         atomic.Int64
	evictions     atomic.Int64
	bytesReceived atomic.Int64
}

// ListenConfig starts a broadcaster on addr with an explicit fan-out
// configuration.
func ListenConfig(addr string, cfg Config) (*Broadcaster, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netcast: listen: %w", err)
	}
	cfg = cfg.withDefaults()
	b := &Broadcaster{
		ln:         ln,
		cfg:        cfg,
		stop:       make(chan struct{}),
		writeFrame: deadlineWrite,
	}
	b.shards = make([]*shard, cfg.Shards)
	for i := range b.shards {
		s := &shard{id: i, subs: make(map[uint64]*subscriber), wake: make(chan struct{}, 1)}
		b.shards[i] = s
		b.wg.Add(1)
		go b.runShard(s)
	}
	b.wg.Add(1)
	go b.acceptLoop()
	return b, nil
}

// Addr returns the listening address.
func (b *Broadcaster) Addr() string { return b.ln.Addr().String() }

// Subscribers returns the current subscriber count.
func (b *Broadcaster) Subscribers() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, s := range b.shards {
		n += len(s.subs)
	}
	return n
}

func (b *Broadcaster) acceptLoop() {
	defer b.wg.Done()
	for {
		conn, err := b.ln.Accept()
		if err != nil {
			return // listener closed
		}
		b.attach(conn)
	}
}

// SubscribeLocal attaches an in-process subscriber and returns the
// client end of the connection — a tuner without a socket, so an
// audience of thousands needs no file descriptors. The returned conn
// behaves like a dialed TCP conn (including being closed when the
// subscriber is evicted), with a socket-sized 64 KiB receive buffer.
func (b *Broadcaster) SubscribeLocal() (net.Conn, error) {
	// Clients have nothing to send in a push system, so the
	// client-to-server direction gets a token buffer.
	server, client := newMemConnPairSized(memBufSize, 256)
	if !b.attach(server) {
		_ = client.Close()
		return nil, fmt.Errorf("netcast: broadcaster closed")
	}
	return client, nil
}

// attach registers a new subscriber connection (from the TCP accept loop
// or SubscribeLocal), greets it with the most recent frame, and starts
// its inbound drain. It reports false when the broadcaster is closed.
func (b *Broadcaster) attach(conn net.Conn) bool {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		_ = conn.Close()
		return false
	}
	var wakeShard *shard
	id := b.nextID
	b.nextID++
	s := b.shards[id%uint64(len(b.shards))]
	sub := &subscriber{id: id, conn: conn, q: make(chan qframe, b.cfg.QueueLen)}
	s.subs[id] = sub
	if b.last != nil {
		// Greet with the most recent becast so a new subscriber does not
		// idle until the next cycle; mid-stream joins are part of the
		// model (clients tune in whenever they like). The queue is
		// freshly made and QueueLen >= 1, so the greet enqueue cannot
		// block. Greetings are never lag-sampled: they are not part of
		// any cycle's fan-out.
		//lint:allow lockorder the queue was just made with cap >= 1 and nothing has sent on it, so this send cannot block
		sub.q <- qframe{f: b.last}
		s.queued.Add(1)
		wakeShard = s
	}
	b.mu.Unlock()
	// Clients have nothing to say in a push system; any inbound bytes
	// are drained, counted, and ignored.
	b.wg.Add(1)
	go b.drainInbound(conn)
	if wakeShard != nil {
		wakeShard.notify()
	}
	return true
}

func (s *shard) notify() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

func (b *Broadcaster) drainInbound(conn net.Conn) {
	defer b.wg.Done()
	buf := make([]byte, 1024)
	for {
		n, err := conn.Read(buf)
		b.bytesReceived.Add(int64(n))
		if err != nil {
			return
		}
	}
}

// Traffic returns the broadcaster's cumulative traffic counters.
func (b *Broadcaster) Traffic() Stats {
	return Stats{
		FramesSent:    b.framesSent.Load(),
		BytesSent:     b.bytesSent.Load(),
		Drops:         b.drops.Load(),
		Evictions:     b.evictions.Load(),
		BytesReceived: b.bytesReceived.Load(),
	}
}

// Shards returns per-shard live counters, indexed by shard.
func (b *Broadcaster) Shards() []ShardStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]ShardStats, len(b.shards))
	for i, s := range b.shards {
		out[i] = ShardStats{
			Shard:       s.id,
			Subscribers: len(s.subs),
			QueueDepth:  s.queued.Load(),
			FramesSent:  s.sent.Load(),
			BytesSent:   s.bytes.Load(),
			Evictions:   s.evictions.Load(),
			Drops:       s.drops.Load(),
		}
	}
	return out
}

// QueueDepth returns the total number of enqueued-but-unwritten frames
// across all shards — zero when every subscriber has fully drained.
func (b *Broadcaster) QueueDepth() int64 {
	var n int64
	for _, s := range b.shards {
		n += s.queued.Load()
	}
	return n
}

// SampleLag enables wall-clock lag sampling on the fan-out path: every
// stride-th subscriber's enqueue records the instantaneous queue depth
// into depth and stamps its queue entry, and the owning shard's writer
// records the enqueue-to-written latency into drain[shard] when the
// stamped frame leaves the wire. now must come from obs.WallSampler —
// the single clock entry point bpush-lint pins — and drain needs one
// histogram per shard. Sampling is off until SampleLag is called (zero
// cost beyond one atomic nil load per broadcast).
func (b *Broadcaster) SampleLag(now obs.Sampler, depth *obs.Histogram, drain []*obs.Histogram, stride int) error {
	if now == nil || depth == nil {
		return fmt.Errorf("netcast: lag sampling needs a sampler and a depth histogram")
	}
	if len(drain) != len(b.shards) {
		return fmt.Errorf("netcast: %d drain histograms for %d shards", len(drain), len(b.shards))
	}
	for i, h := range drain {
		if h == nil {
			return fmt.Errorf("netcast: nil drain histogram for shard %d", i)
		}
	}
	if stride < 1 {
		stride = 1
	}
	// Round up to a power of two: sampling density is a rate, not a
	// contract, and the mask keeps the 10k-wide fan-out walk division
	// free.
	pow := uint64(1)
	for pow < uint64(stride) {
		pow <<= 1
	}
	b.sampler.Store(&lagSampler{now: now, mask: pow - 1, depth: depth, drain: drain})
	return nil
}

// Broadcast pushes one sealed frame to every subscriber: every
// subscriber queue shares the frame zero-copy, so the fan-out costs no
// per-subscriber copy. Slow or dead subscribers are dropped — broadcast
// delivery never blocks on a client, which is the scalability property
// of push systems.
//
//lint:hotpath the 10k-tuner fan-out ships one frame per cycle
func (b *Broadcaster) Broadcast(f Frame) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return fmt.Errorf("netcast: broadcaster closed")
	}
	b.last = f
	// Fan the one frame out to every subscriber queue without blocking:
	// a full queue means the reader is too slow for the broadcast rate,
	// and the eviction contract turns that into a dropped subscriber
	// (whose client resynchronizes through the gap path) instead of a
	// stalled cycle.
	sm := b.sampler.Load()
	var evicted []*subscriber
	for _, s := range b.shards {
		for id, sub := range s.subs {
			var at int64
			if sm != nil && sub.id&sm.mask == 0 {
				// Queue depth is sampled before this enqueue, so a
				// freshly drained subscriber reads 0.
				sm.depth.Observe(float64(len(sub.q)))
				at = sm.now()
			}
			select {
			case sub.q <- qframe{f: f, at: at}:
				s.queued.Add(1)
			default:
				delete(s.subs, id)
				sub.gone.Store(true)
				s.evictions.Add(1)
				b.evictions.Add(1)
				//lint:allow hotalloc allocates only when a subscriber is actually evicted, never on the clean fan-out path
				evicted = append(evicted, sub)
			}
		}
	}
	b.mu.Unlock()
	for _, sub := range evicted {
		_ = sub.conn.Close()
	}
	for _, s := range b.shards {
		s.notify()
	}
	return nil
}

// runShard is a shard's writer loop: woken after enqueues, it drains
// every subscriber queue, writing each pending frame with a bounded
// deadline. A failed or timed-out write drops the subscriber; the
// bounded deadline caps how long one wedged socket can delay its
// shard-mates, and other shards are never affected at all.
func (b *Broadcaster) runShard(s *shard) {
	defer b.wg.Done()
	var snap []*subscriber // reused across wakeups: steady-state fan-out allocates nothing
	for {
		select {
		case <-s.wake:
		case <-b.stop:
			return
		}
		for {
			snap = snap[:0]
			b.mu.Lock()
			for _, sub := range s.subs {
				snap = append(snap, sub)
			}
			subs := snap
			b.mu.Unlock()
			progress := false
			for _, sub := range subs {
				if sub.gone.Load() {
					continue
				}
			drain:
				for {
					select {
					case qf := <-sub.q:
						n, err := b.writeFrame(sub.conn, b.cfg.WriteTimeout, qf.f)
						b.bytesSent.Add(int64(n))
						s.bytes.Add(int64(n))
						// The frame leaves QueueDepth only after everything
						// it counts for is recorded, so a depth of 0 means
						// every drain sample and drop is in.
						if err != nil {
							b.dropSub(s, sub)
							s.queued.Add(-1)
							break drain
						}
						b.framesSent.Add(1)
						s.sent.Add(1)
						if qf.at != 0 {
							if sm := b.sampler.Load(); sm != nil {
								sm.drain[s.id].Observe(float64(sm.now() - qf.at))
							}
						}
						s.queued.Add(-1)
						progress = true
					default:
						break drain
					}
				}
			}
			if !progress {
				break
			}
		}
	}
}

// dropSub removes a subscriber whose write failed or timed out, closes
// its connection, and discards whatever was still queued.
func (b *Broadcaster) dropSub(s *shard, sub *subscriber) {
	b.mu.Lock()
	if _, ok := s.subs[sub.id]; ok {
		delete(s.subs, sub.id)
		s.drops.Add(1)
		b.drops.Add(1)
	}
	sub.gone.Store(true)
	b.mu.Unlock()
	_ = sub.conn.Close()
	// No enqueue can race the drain: broadcasts only enqueue to subs
	// still in the shard map, and the removal above holds the lock.
	for {
		select {
		case <-sub.q:
			s.queued.Add(-1)
		default:
			return
		}
	}
}

// Close stops accepting, disconnects every subscriber, stops the shard
// writers, and waits for every goroutine to exit. Frames still queued
// for slow subscribers are discarded — shutdown does not wait for
// stragglers.
func (b *Broadcaster) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	var conns []net.Conn
	for _, s := range b.shards {
		for _, sub := range s.subs {
			sub.gone.Store(true)
			conns = append(conns, sub.conn)
		}
		s.subs = map[uint64]*subscriber{}
	}
	b.mu.Unlock()

	close(b.stop)
	err := b.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	b.wg.Wait()
	return err
}

// Tuner subscribes to a broadcaster and yields becasts. It implements
// client.Feed.
type Tuner struct {
	conn net.Conn
	r    *bufio.Reader

	corrupt atomic.Int64
}

// Dial connects a tuner to a broadcaster over TCP.
func Dial(addr string) (*Tuner, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netcast: dial: %w", err)
	}
	return Tune(conn), nil
}

// Tune wraps an already-established subscriber connection (a dialed
// socket, or the client end returned by SubscribeLocal) in a Tuner.
func Tune(conn net.Conn) *Tuner {
	return TuneBuffered(conn, 1<<16)
}

// TuneBuffered is Tune with a caller-sized read buffer, for callers
// that attach thousands of in-process tuners and size each one's buffer
// themselves.
func TuneBuffered(conn net.Conn, size int) *Tuner {
	return &Tuner{conn: conn, r: bufio.NewReaderSize(conn, size)}
}

// Next blocks until the next intact becast arrives. Frames that fail the
// wire checksum or structural validation are discarded and the tuner
// resynchronizes by scanning the stream for the next frame magic — a
// damaged cycle becomes a silent gap for the client's loss detection to
// downgrade, never garbage data. It returns io.EOF after the broadcaster
// shuts down.
func (t *Tuner) Next() (*broadcast.Bcast, error) {
	for {
		b, err := wire.Decode(t.r)
		if err == nil {
			return b, nil
		}
		if !errors.Is(err, wire.ErrBadFrame) {
			return nil, err // transport error or clean EOF
		}
		t.corrupt.Add(1)
		if err := t.resync(); err != nil {
			return nil, err
		}
	}
}

// resync scans forward until the next frame magic is at the head of the
// stream. A failed decode leaves the reader at an arbitrary offset inside
// the damaged frame; each failed attempt consumes at least the magic, so
// the scan always makes progress.
func (t *Tuner) resync() error {
	for {
		hdr, err := t.r.Peek(4)
		if err != nil {
			return err
		}
		if binary.BigEndian.Uint32(hdr) == wire.Magic {
			return nil
		}
		if _, err := t.r.Discard(1); err != nil {
			return err
		}
	}
}

// CorruptFrames reports how many damaged frames the tuner has discarded.
func (t *Tuner) CorruptFrames() int64 { return t.corrupt.Load() }

// Close disconnects the tuner.
func (t *Tuner) Close() error { return t.conn.Close() }
