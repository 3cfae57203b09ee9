package netcast

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// memconn carries every SubscribeLocal tuner, including the benchmark's
// fan-out audience, so its net.Conn semantics — blocking, deadlines,
// close behavior — are pinned here against what the broadcaster and
// tuner actually rely on.

func TestMemConnRoundTrip(t *testing.T) {
	a, b := newMemConnPair()
	defer func() { _ = a.Close(); _ = b.Close() }()
	msg := []byte("hello from the station")
	go func() { _, _ = a.Write(msg) }()
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(b, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("read %q, want %q", got, msg)
	}
	// And the other direction.
	go func() { _, _ = b.Write([]byte("ack")) }()
	got = make([]byte, 3)
	if _, err := io.ReadFull(a, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "ack" {
		t.Fatalf("reverse read %q, want %q", got, "ack")
	}
}

// TestMemConnLargeTransfer pushes far more than the buffer capacity
// through with a concurrent reader, exercising ring wraparound and
// writer blocking/waking.
func TestMemConnLargeTransfer(t *testing.T) {
	a, b := newMemConnPair()
	defer func() { _ = b.Close() }()
	const total = 5 * memBufSize
	src := make([]byte, total)
	for i := range src {
		src[i] = byte(i * 31)
	}
	go func() {
		_, _ = a.Write(src)
		_ = a.Close()
	}()
	got, err := io.ReadAll(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("transfer corrupted: %d bytes read, want %d", len(got), total)
	}
}

// TestMemConnCloseDrainsThenEOF: TCP-like close — the peer reads what
// was already buffered, then clean EOF.
func TestMemConnCloseDrainsThenEOF(t *testing.T) {
	a, b := newMemConnPair()
	if _, err := a.Write([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	_ = a.Close()
	got, err := io.ReadAll(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "tail" {
		t.Fatalf("drained %q, want %q", got, "tail")
	}
	if _, err := b.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read after drain = %v, want io.EOF", err)
	}
	// Writes toward the closed peer fail.
	if _, err := b.Write([]byte("x")); err == nil {
		t.Fatal("write to closed peer succeeded")
	}
}

// TestMemConnReadDeadline: an expired deadline surfaces as a net.Error
// with Timeout() true, and clearing it makes the conn usable again.
func TestMemConnReadDeadline(t *testing.T) {
	a, b := newMemConnPair()
	defer func() { _ = a.Close(); _ = b.Close() }()
	_ = b.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	start := time.Now()
	_, err := b.Read(make([]byte, 1))
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("deadline read error = %v, want net.Error timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline read blocked %v", elapsed)
	}
	// Clear the deadline; the conn still works.
	_ = b.SetReadDeadline(time.Time{})
	go func() { _, _ = a.Write([]byte("y")) }()
	got := make([]byte, 1)
	if _, err := io.ReadFull(b, got); err != nil {
		t.Fatal(err)
	}
}

// TestMemConnWriteDeadline: a writer blocked on a full peer buffer is
// released by its deadline instead of hanging forever — the property the
// broadcaster's write timeout depends on.
func TestMemConnWriteDeadline(t *testing.T) {
	a, b := newMemConnPair()
	defer func() { _ = a.Close(); _ = b.Close() }()
	// Fill the peer's receive buffer.
	if _, err := a.Write(make([]byte, memBufSize)); err != nil {
		t.Fatal(err)
	}
	_ = a.SetWriteDeadline(time.Now().Add(30 * time.Millisecond))
	_, err := a.Write([]byte("overflow"))
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("deadline write error = %v, want net.Error timeout", err)
	}
}

// TestMemConnAddrsDistinct: each pair gets unique, directional
// addresses — tests route stall injection by address, so collisions
// would silently stall the wrong subscriber.
func TestMemConnAddrsDistinct(t *testing.T) {
	a1, b1 := newMemConnPair()
	a2, b2 := newMemConnPair()
	defer func() { _ = a1.Close(); _ = a2.Close() }()
	if a1.LocalAddr().String() != b1.RemoteAddr().String() {
		t.Errorf("pair ends disagree: %v vs %v", a1.LocalAddr(), b1.RemoteAddr())
	}
	if a1.LocalAddr().String() == a2.LocalAddr().String() {
		t.Errorf("distinct pairs share address %v", a1.LocalAddr())
	}
	if a1.LocalAddr().Network() != "mem" {
		t.Errorf("network = %q, want mem", a1.LocalAddr().Network())
	}
	_ = b2
}

// TestMemConnCloseUnblocksReader: Close from another goroutine releases
// a blocked read — shutdown must not strand tuner goroutines.
func TestMemConnCloseUnblocksReader(t *testing.T) {
	a, b := newMemConnPair()
	done := make(chan error, 1)
	go func() {
		_, err := b.Read(make([]byte, 1))
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	_ = a.Close()
	select {
	case err := <-done:
		if err != io.EOF {
			t.Fatalf("read unblocked with %v, want io.EOF", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not unblock the reader")
	}
}

// TestMemConnDeadlineTimerReused: the broadcaster sets a write deadline
// before every frame, so re-arming must reuse the pipe's one timer
// instead of allocating a timer and a closure per write, and closing the
// conn must disarm it so the pipe is not kept alive until it fires.
func TestMemConnDeadlineTimerReused(t *testing.T) {
	a, b := newMemConnPair()
	defer func() { _ = b.Close() }()
	_ = a.SetWriteDeadline(time.Now().Add(time.Hour))
	if n := testing.AllocsPerRun(100, func() {
		_ = a.SetWriteDeadline(time.Now().Add(time.Hour))
	}); n != 0 {
		t.Errorf("SetWriteDeadline allocates %v objects per call after the first, want 0", n)
	}
	_ = a.Close()
	if a.out.wtimer.Stop() {
		t.Error("write deadline timer still armed after Close")
	}
}

// TestMemConnDeadlineMovedLater: pushing a deadline back must not let the
// timer armed for the earlier one fail the write early.
func TestMemConnDeadlineMovedLater(t *testing.T) {
	a, b := newMemConnPair()
	defer func() { _ = a.Close(); _ = b.Close() }()
	if _, err := a.Write(make([]byte, memBufSize)); err != nil {
		t.Fatal(err)
	}
	_ = a.SetWriteDeadline(time.Now().Add(10 * time.Millisecond))
	later := time.Now().Add(150 * time.Millisecond)
	_ = a.SetWriteDeadline(later)
	_, err := a.Write([]byte("overflow"))
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("write error = %v, want net.Error timeout", err)
	}
	if now := time.Now(); now.Before(later) {
		t.Fatalf("write failed %v before its deadline", later.Sub(now))
	}
}

// TestMemConnDeadlineReleasesBlockedWrite: a deadline set while a write
// is already blocked on a full buffer still expires it with a timeout.
func TestMemConnDeadlineReleasesBlockedWrite(t *testing.T) {
	a, b := newMemConnPair()
	defer func() { _ = a.Close(); _ = b.Close() }()
	if _, err := a.Write(make([]byte, memBufSize)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := a.Write([]byte("overflow"))
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	_ = a.SetWriteDeadline(time.Now().Add(20 * time.Millisecond))
	select {
	case err := <-done:
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("blocked write error = %v, want net.Error timeout", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("expired deadline did not release the blocked write")
	}
}
