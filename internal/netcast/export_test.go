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
