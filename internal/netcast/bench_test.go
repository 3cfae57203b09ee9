package netcast

import (
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"
)

// Fan-out cost benchmarks, the in-package counterpart of the bpush-cast
// -load harness. Two quantities matter:
//
//   - On-air time: how long Broadcast holds the broadcast path: one
//     bounded enqueue per subscriber. This is the number that decides
//     whether a slow audience can stretch the cycle period.
//   - Sustained time: broadcast plus full delivery to every subscriber,
//     bounding the cycle rate the audience can actually absorb.
//
// Subscribers are in-process memconns with io.Discard readers, so the
// benchmark measures the broadcaster, not the kernel's TCP stack.

// benchFrame is a realistic on-air frame size (a small becast).
const benchFrameLen = 1024

func benchBroadcaster(b *testing.B, cfg Config, subs int) *Broadcaster {
	b.Helper()
	bc, err := ListenConfig("127.0.0.1:0", cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = bc.Close() })
	for i := 0; i < subs; i++ {
		conn, err := bc.SubscribeLocal()
		if err != nil {
			b.Fatal(err)
		}
		go func() { _, _ = io.Copy(io.Discard, conn) }()
	}
	return bc
}

// waitDrained blocks until every queued frame has been written out.
func waitDrained(b *testing.B, bc *Broadcaster) {
	b.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for bc.QueueDepth() > 0 {
		if time.Now().After(deadline) {
			b.Fatal("fan-out queues did not drain")
		}
		runtime.Gosched()
	}
}

var benchSubCounts = []int{16, 256, 2048}

// BenchmarkBroadcastOnAir measures the broadcast path alone: delivery
// happens between iterations with the timer stopped. Allocations per op
// must stay independent of the subscriber count — the frame is sealed
// once and shared, never copied per subscriber.
func BenchmarkBroadcastOnAir(b *testing.B) {
	for _, subs := range benchSubCounts {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			bc := benchBroadcaster(b, Config{QueueLen: 4}, subs)
			f := NewFrame(make([]byte, benchFrameLen))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := bc.Broadcast(f); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				waitDrained(b, bc)
				b.StartTimer()
			}
			b.StopTimer()
			if ev := bc.Traffic().Evictions; ev != 0 {
				b.Fatalf("%d evictions mid-benchmark; subscriber population was not constant", ev)
			}
		})
	}
}

// BenchmarkBroadcastSustained measures broadcast plus complete delivery
// per cycle through the sharded tier.
func BenchmarkBroadcastSustained(b *testing.B) {
	for _, subs := range benchSubCounts {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			bc := benchBroadcaster(b, Config{QueueLen: 4}, subs)
			f := NewFrame(make([]byte, benchFrameLen))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := bc.Broadcast(f); err != nil {
					b.Fatal(err)
				}
				waitDrained(b, bc)
			}
			b.StopTimer()
			if ev := bc.Traffic().Evictions; ev != 0 {
				b.Fatalf("%d evictions mid-benchmark; subscriber population was not constant", ev)
			}
		})
	}
}
