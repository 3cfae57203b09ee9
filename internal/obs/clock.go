package obs

import "time"

// Sampler reads a monotonic-enough clock and returns nanoseconds. It is
// the seam between the deterministic protocol stack and real time: the
// live netcast tier measures spans by calling a Sampler at tier
// boundaries and shipping the resulting int64s through ordinary events
// and histograms, so no other code ever touches the clock. bpush-lint's
// clockentry analyzer pins WallSampler as the only function in this
// package allowed to reference time.Now — everything reachable from the
// deterministic roots (Recorder implementations included) stays
// clock-free, which is what keeps sim traces byte-identical.
//
// A nil Sampler means "not sampled": emitters skip measurement entirely,
// the same zero-cost convention as a nil Recorder.
type Sampler func() int64

// WallSampler returns the process wall-clock sampler. This function is
// the single allowed clock entry point of the observability layer; call
// it once at wiring time (station construction) and pass the Sampler
// down.
func WallSampler() Sampler {
	return func() int64 { return time.Now().UnixNano() }
}
