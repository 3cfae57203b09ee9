package netcast

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// FuzzShardedBroadcast drives a random interleaving of subscribes,
// broadcasts, and client-side hangups against the sharded broadcaster
// and checks every surviving subscriber's delivered stream against a
// sequential oracle: a subscriber must receive exactly the greeting
// frame current at its join followed by every subsequent broadcast, in
// order. Queues are sized so no interleaving can overflow (eviction is
// pinned separately and deterministically in TestQueueOverflowEvicts);
// any divergence here is a delivery bug, not policy.
func FuzzShardedBroadcast(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 2, 1})          // subscribe/broadcast churn
	f.Add([]byte{1, 1, 0, 0, 2, 0, 1, 1, 2}) // late joiners and a hangup
	f.Add([]byte{0, 2, 1})                   // hangup of the only subscriber
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 48 {
			ops = ops[:48]
		}
		b, err := ListenConfig("127.0.0.1:0", Config{Shards: 3, QueueLen: 64})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = b.Close() }()

		type oracleSub struct {
			conn    net.Conn
			want    []uint64 // sequential oracle: greet-at-join + later broadcasts
			closed  bool
			joinSeq uint64
		}
		var subs []*oracleSub
		var seq uint64
		for _, op := range ops {
			switch op % 3 {
			case 0: // subscribe
				conn, err := b.SubscribeLocal()
				if err != nil {
					t.Fatal(err)
				}
				s := &oracleSub{conn: conn, joinSeq: seq}
				if seq > 0 {
					s.want = append(s.want, seq) // greeting: latest frame
				}
				subs = append(subs, s)
			case 1: // broadcast
				seq++
				if err := b.Broadcast(NewFrame(seqFrame(seq))); err != nil {
					t.Fatal(err)
				}
				for _, s := range subs {
					if !s.closed {
						s.want = append(s.want, seq)
					}
				}
			case 2: // client hangs up on the most recent open subscriber
				for i := len(subs) - 1; i >= 0; i-- {
					if !subs[i].closed {
						subs[i].closed = true
						_ = subs[i].conn.Close()
						break
					}
				}
			}
		}
		// Wait until every queue has drained (the depth gauge decrements
		// only after the write completes, so zero means delivered) or the
		// writers gave up on closed subscribers.
		deadline := time.Now().Add(5 * time.Second)
		for b.QueueDepth() > 0 && time.Now().Before(deadline) {
			runtime.Gosched()
			time.Sleep(time.Millisecond)
		}

		var wg sync.WaitGroup
		errs := make([]string, len(subs))
		for i, s := range subs {
			if s.closed {
				continue // a hung-up client's tail delivery is unspecified
			}
			wg.Add(1)
			go func(i int, s *oracleSub) {
				defer wg.Done()
				_ = s.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
				buf := make([]byte, 8)
				for k, want := range s.want {
					if _, err := io.ReadFull(s.conn, buf); err != nil {
						errs[i] = fmt.Sprintf("subscriber %d (joined at seq %d): frame %d/%d: %v",
							i, s.joinSeq, k, len(s.want), err)
						return
					}
					if got := binary.BigEndian.Uint64(buf); got != want {
						errs[i] = fmt.Sprintf("subscriber %d (joined at seq %d): frame %d = %d, oracle says %d",
							i, s.joinSeq, k, got, want)
						return
					}
				}
			}(i, s)
		}
		wg.Wait()
		for _, e := range errs {
			if e != "" {
				t.Error(e)
			}
		}
	})
}
