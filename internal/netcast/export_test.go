package netcast

import (
	"bpush/internal/obs"
)

// Listen starts a broadcaster on addr (e.g. "127.0.0.1:0") with the
// default sharded configuration.
func Listen(addr string) (*Broadcaster, error) {
	return ListenConfig(addr, Config{})
}

// Trace returns the station's bounded trace ring — the buffer behind the
// /tracez endpoint.
func (s *Station) Trace() *obs.Ring { return s.ring }

// ClientRecorder returns a recorder that folds client-side scheme events
// into the station's metric registry — in-process clients attach it so
// their per-read staleness events land in the same /metricsz snapshot as
// the producer's tiers. It bypasses the trace ring: /tracez stays a
// producer-side view instead of an interleaving of every client.
func (s *Station) ClientRecorder() obs.Recorder { return s.fold }
