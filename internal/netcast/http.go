package netcast

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	pprof "net/http/pprof"
	"time"

	"bpush/internal/obs"
)

// metricsServer serves a station's live observability endpoints:
//
//	GET /metricsz  — the metric registry as JSON (counters, gauges,
//	                 histograms with bucket layouts and quantiles)
//	GET /statusz   — a plain-text operator summary: configuration,
//	                 traffic, per-shard fan-out state, latency tiers
//	GET /tracez    — the most recent trace events, oldest first
//
// With StationConfig.Pprof the standard net/http/pprof handlers are
// mounted under /debug/pprof/. All endpoints render point-in-time
// snapshots; none blocks the broadcast path.
type metricsServer struct {
	ln  net.Listener
	srv *http.Server
}

// serveMetrics starts the HTTP endpoint for the station on addr.
func serveMetrics(addr string, s *Station) (*metricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netcast: metrics listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metricsz", func(w http.ResponseWriter, r *http.Request) {
		s.refreshGauges()
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.reg.Snapshot())
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		s.refreshGauges()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		writeStatus(w, s)
	})
	mux.HandleFunc("/tracez", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct {
			Dropped uint64      `json:"dropped"`
			Events  interface{} `json:"events"`
		}{Dropped: s.ring.Dropped(), Events: s.ring.Events()})
	})
	if s.cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	m := &metricsServer{ln: ln, srv: srv}
	go func() { _ = srv.Serve(ln) }()
	return m, nil
}

// statusWriter accumulates the /statusz page, latching the first write
// error so later lines become no-ops; an operator page aborted by a
// closed connection needs no recovery beyond stopping.
type statusWriter struct {
	w   io.Writer
	err error
}

func (sw *statusWriter) printf(format string, args ...any) {
	if sw.err != nil {
		return
	}
	_, sw.err = fmt.Fprintf(sw.w, format, args...)
}

// writeStatus renders the /statusz operator page from a registry
// snapshot plus the broadcaster's live counters. Quantiles are
// recomputed exactly from the snapshots' bucket layouts (the same
// round trip bpush-inspect lag performs offline), so the page never
// shows a number the exported data cannot reproduce.
func writeStatus(out io.Writer, s *Station) {
	w := &statusWriter{w: out}
	snap := s.reg.Snapshot()
	t := s.bc.Traffic()
	w.printf("bpush station %s\n", s.Addr())
	w.printf("  db=%d versions=%d seed=%d workers=%d sample=%v\n",
		s.cfg.DBSize, s.cfg.Versions, s.cfg.Seed, s.cfg.Workers, s.cfg.Sample)
	w.printf("\ntraffic\n")
	w.printf("  subscribers=%d frames_sent=%d bytes_sent=%d drops=%d evictions=%d bytes_received=%d\n",
		s.Subscribers(), t.FramesSent, t.BytesSent, t.Drops, t.Evictions, t.BytesReceived)
	if shards := s.bc.Shards(); len(shards) > 0 {
		w.printf("\nshards\n")
		for _, sh := range shards {
			w.printf("  shard %2d: subs=%-5d queued=%-4d sent=%-8d evictions=%-4d drops=%d",
				sh.Shard, sh.Subscribers, sh.QueueDepth, sh.FramesSent, sh.Evictions, sh.Drops)
			if h, ok := snap.Histograms[fmt.Sprintf("net.shard.%d.drain_ns", sh.Shard)]; ok && h.Count > 0 {
				w.printf("  drain p50=%s p99=%s", fmtNs(h.P50), fmtNs(h.P99))
			}
			w.printf("\n")
		}
	}
	writeTierSection(w, snap)
}

// writeTierSection renders the latency-attribution tiers present in the
// snapshot, in pipeline order.
func writeTierSection(w *statusWriter, snap obs.RegistrySnapshot) {
	var lines []string
	for _, tier := range obs.SpanTiers {
		h, ok := snap.Histograms[spanMetric(tier)]
		if !ok || h.Count == 0 {
			continue
		}
		p50, p95, p99 := snapQuantiles(h)
		lines = append(lines, fmt.Sprintf("  %-8s n=%-7d p50=%-10s p95=%-10s p99=%-10s max=%s",
			tier, h.Count, fmtNs(p50), fmtNs(p95), fmtNs(p99), fmtNs(h.Max)))
	}
	if h, ok := snap.Histograms["net.queue_depth"]; ok && h.Count > 0 {
		p50, p95, p99 := snapQuantiles(h)
		lines = append(lines, fmt.Sprintf("  %-8s n=%-7d p50=%-10.0f p95=%-10.0f p99=%-10.0f max=%.0f",
			"qdepth", h.Count, p50, p95, p99, h.Max))
	}
	if len(lines) == 0 {
		return
	}
	w.printf("\nlatency tiers (wall clock)\n")
	for _, l := range lines {
		w.printf("%s\n", l)
	}
}

// snapQuantiles recomputes p50/p95/p99 exactly from a snapshot's bucket
// layout, falling back to the precomputed estimates if the layout is
// somehow inconsistent.
func snapQuantiles(h obs.HistogramSnapshot) (p50, p95, p99 float64) {
	r, err := h.Restore()
	if err != nil {
		return h.P50, h.P95, h.P99
	}
	return r.Quantile(0.50), r.Quantile(0.95), r.Quantile(0.99)
}

// fmtNs renders a nanosecond quantity with an adaptive unit.
func fmtNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}

func (m *metricsServer) addr() string { return m.ln.Addr().String() }

func (m *metricsServer) close() error { return m.srv.Close() }
