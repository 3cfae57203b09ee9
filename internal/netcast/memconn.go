package netcast

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// memconn is an in-process net.Conn pair backed by bounded byte buffers —
// a loopback socket without the file descriptor. SubscribeLocal uses it
// to attach in-process tuners to a broadcaster (the repo benchmark's
// fan-out audience; 10k TCP subscribers would need 20k descriptors);
// tests use it for deterministic subscriber behavior without kernel
// buffer tuning.
//
// Semantics mirror TCP closely enough for the broadcaster and tuner:
// writes block while the peer's receive buffer is full (honoring write
// deadlines), reads block until data arrives, closing a conn fails the
// peer's writes immediately but lets the peer drain already-buffered
// bytes before seeing io.EOF.

// memBufSize is each direction's buffer capacity, sized like a typical
// kernel socket buffer.
const memBufSize = 64 << 10

// memConnSeq numbers conn pairs so each end has a distinguishable
// address (tests target subscribers by address).
var memConnSeq atomic.Uint64

// newMemConnPair returns the two ends of an in-process connection with
// socket-sized buffers in both directions.
func newMemConnPair() (*memConn, *memConn) {
	return newMemConnPairSized(memBufSize, memBufSize)
}

// newMemConnPairSized returns a pair with per-direction buffer sizes:
// aToB is the capacity of the a-writes/b-reads direction, bToA the
// reverse. The broadcaster sizes the unused client-to-server direction
// down to near nothing when attaching thousands of in-process tuners.
func newMemConnPairSized(aToB, bToA int) (*memConn, *memConn) {
	id := memConnSeq.Add(1)
	ab := newMemPipe(aToB) // a writes, b reads
	ba := newMemPipe(bToA) // b writes, a reads
	a := &memConn{in: ba, out: ab, local: memAddr(fmt.Sprintf("mem:%d:a", id)), remote: memAddr(fmt.Sprintf("mem:%d:b", id))}
	b := &memConn{in: ab, out: ba, local: memAddr(fmt.Sprintf("mem:%d:b", id)), remote: memAddr(fmt.Sprintf("mem:%d:a", id))}
	return a, b
}

type memAddr string

func (a memAddr) Network() string { return "mem" }
func (a memAddr) String() string  { return string(a) }

// memConn is one end of the pair: it reads from in and writes to out.
type memConn struct {
	in, out       *memPipe
	local, remote net.Addr

	mu     sync.Mutex
	closed bool
}

func (c *memConn) Read(p []byte) (int, error)  { return c.in.read(p) }
func (c *memConn) Write(p []byte) (int, error) { return c.out.write(p) }

// Close tears down both directions: the peer's in-flight and future
// writes fail, and the peer's reads drain what was already buffered
// before returning io.EOF.
func (c *memConn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.out.closeWrite()
	c.in.closeRead()
	return nil
}

func (c *memConn) LocalAddr() net.Addr  { return c.local }
func (c *memConn) RemoteAddr() net.Addr { return c.remote }

func (c *memConn) SetDeadline(t time.Time) error {
	c.in.setReadDeadline(t)
	c.out.setWriteDeadline(t)
	return nil
}

func (c *memConn) SetReadDeadline(t time.Time) error  { c.in.setReadDeadline(t); return nil }
func (c *memConn) SetWriteDeadline(t time.Time) error { c.out.setWriteDeadline(t); return nil }

// memTimeoutError satisfies net.Error with Timeout() == true, mirroring
// the error a TCP conn returns when a deadline expires.
type memTimeoutError struct{}

func (memTimeoutError) Error() string   { return "memconn: deadline exceeded" }
func (memTimeoutError) Timeout() bool   { return true }
func (memTimeoutError) Temporary() bool { return true }

// memPipe is one direction: a bounded ring buffer with blocking reads
// and writes, deadlines, and TCP-like close semantics.
type memPipe struct {
	mu   sync.Mutex
	cond *sync.Cond

	buf        []byte // ring
	start, n   int
	wclosed    bool // no more writes; reads drain then EOF
	rclosed    bool // reader gone; writes fail, buffer discarded
	rdeadline  time.Time
	wdeadline  time.Time
	rtimer     *time.Timer
	wtimer     *time.Timer
	rdlExpired bool
	wdlExpired bool
}

func newMemPipe(size int) *memPipe {
	p := &memPipe{buf: make([]byte, size)}
	p.cond = sync.NewCond(&p.mu)
	// One timer per deadline for the pipe's lifetime, created stopped and
	// re-armed with Reset.
	p.rtimer = time.AfterFunc(time.Hour, p.expire)
	p.rtimer.Stop()
	p.wtimer = time.AfterFunc(time.Hour, p.expire)
	p.wtimer.Stop()
	return p
}

func (p *memPipe) read(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.rclosed {
			return 0, net.ErrClosed
		}
		if p.n > 0 {
			break
		}
		if p.wclosed {
			return 0, io.EOF
		}
		if p.rdlExpired {
			return 0, memTimeoutError{}
		}
		p.cond.Wait()
	}
	n := copy(b, p.contiguous())
	p.start = (p.start + n) % len(p.buf)
	p.n -= n
	p.cond.Broadcast() // space freed; wake writers
	return n, nil
}

// contiguous returns the readable run starting at start without wrapping.
func (p *memPipe) contiguous() []byte {
	end := p.start + p.n
	if end > len(p.buf) {
		end = len(p.buf)
	}
	return p.buf[p.start:end]
}

func (p *memPipe) write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	total := 0
	for len(b) > 0 {
		if p.wclosed || p.rclosed {
			return total, net.ErrClosed
		}
		if p.wdlExpired {
			return total, memTimeoutError{}
		}
		free := len(p.buf) - p.n
		if free == 0 {
			p.cond.Wait()
			continue
		}
		k := free
		if k > len(b) {
			k = len(b)
		}
		pos := (p.start + p.n) % len(p.buf)
		run := len(p.buf) - pos
		if run > k {
			run = k
		}
		copy(p.buf[pos:pos+run], b[:run])
		copy(p.buf[:k-run], b[run:k])
		p.n += k
		b = b[k:]
		total += k
		p.cond.Broadcast() // data available; wake readers
	}
	return total, nil
}

func (p *memPipe) closeWrite() {
	p.mu.Lock()
	p.wclosed = true
	p.stopTimers()
	p.mu.Unlock()
	p.cond.Broadcast()
}

func (p *memPipe) closeRead() {
	p.mu.Lock()
	p.rclosed = true
	p.n = 0
	p.stopTimers()
	p.mu.Unlock()
	p.cond.Broadcast()
}

// stopTimers disarms both deadline timers: nothing blocks on a closed
// pipe, and an armed timer would keep the pipe reachable until it fires.
// The caller holds mu.
func (p *memPipe) stopTimers() {
	p.rtimer.Stop()
	p.wtimer.Stop()
}

func (p *memPipe) setReadDeadline(t time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rdeadline = t
	p.rdlExpired = p.arm(p.rtimer, t)
}

func (p *memPipe) setWriteDeadline(t time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.wdeadline = t
	p.wdlExpired = p.arm(p.wtimer, t)
}

// arm points one direction's timer at deadline t and reports whether t
// has already passed. Re-arming is a Reset of the pipe's own timer, so
// setting a deadline allocates nothing per write. A zero or past
// deadline, or a closed pipe (where nothing blocks), leaves it stopped.
// The caller holds mu.
func (p *memPipe) arm(timer *time.Timer, t time.Time) bool {
	timer.Stop()
	if t.IsZero() {
		return false
	}
	d := time.Until(t)
	if d <= 0 {
		p.cond.Broadcast()
		return true
	}
	if !p.wclosed && !p.rclosed {
		timer.Reset(d)
	}
	return false
}

// expire is both timers' callback. A timer can fire for a deadline that
// has since moved, so it re-derives each direction's flag from the
// deadline current now rather than the one it was armed for.
func (p *memPipe) expire() {
	p.mu.Lock()
	p.rdlExpired = deadlinePassed(p.rdeadline)
	p.wdlExpired = deadlinePassed(p.wdeadline)
	p.mu.Unlock()
	p.cond.Broadcast()
}

func deadlinePassed(t time.Time) bool { return !t.IsZero() && !time.Now().Before(t) }
