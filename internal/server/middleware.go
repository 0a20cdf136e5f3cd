package server

import (
	"fmt"
	"log/slog"
	"net/http"
	"time"
)

// This file implements the HTTP-layer RED metrics (Rate, Errors,
// Duration) every v1 and debug-mux route is wrapped in:
//
//   - http.requests.<route>.<status>   per-route/status counters — the
//     rate and error view in one family (4xx/5xx statuses are the
//     errors);
//   - http.latency_seconds.<route>     fixed-bucket histograms,
//     visible as cumulative le buckets in /metrics?format=prom;
//   - http.inflight                    requests currently in a handler;
//   - server.queue_depth, server.jobs_inflight
//     admission-side gauges refreshed on every request (and on every
//     queue transition), so the saturation view is current even
//     between jobs.
//
// The middleware reads clocks and counters only — never request or
// response bodies — so instrumented responses are byte-identical to
// uninstrumented ones.

// latencyBounds are the fixed histogram bucket upper bounds, in
// seconds. Solve jobs admit in microseconds and the debug exports run
// milliseconds-to-seconds, so the buckets span 1ms to 30s.
var latencyBounds = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30}

// statusWriter captures the response status for the RED counters. It
// forwards Flush so the SSE handler can stream through it.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer when it supports streaming;
// the SSE handler checks for http.Flusher through this wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps one route handler in the RED middleware. The
// route's histogram and the shared gauges are resolved once at mount
// time (registry lookups take a mutex); only the per-status counter is
// looked up per request, because the status is not known until the
// handler returns.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	reg := s.opts.Metrics
	hist := reg.Histogram("http.latency_seconds."+route, latencyBounds)
	inflight := reg.Gauge("http.inflight")
	return func(w http.ResponseWriter, r *http.Request) {
		inflight.Set(float64(s.httpInflight.Add(1)))
		s.queueDepth.Set(float64(len(s.queue)))
		s.inflightG.Set(float64(s.inflight.Load()))
		sw := &statusWriter{ResponseWriter: w}
		t0 := time.Now()
		h(sw, r)
		elapsed := time.Since(t0)
		inflight.Set(float64(s.httpInflight.Add(-1)))
		if sw.status == 0 {
			// The handler wrote neither header nor body.
			sw.status = http.StatusOK
		}
		hist.Observe(elapsed.Seconds())
		reg.Counter(fmt.Sprintf("http.requests.%s.%d", route, sw.status)).Inc()
		if lg := s.opts.Logger; lg.Enabled(r.Context(), slog.LevelDebug) {
			lg.LogAttrs(r.Context(), slog.LevelDebug, "http request",
				slog.String("route", route), slog.String("method", r.Method), slog.String("path", r.URL.Path),
				slog.Int("status", sw.status), slog.Float64("elapsed_seconds", elapsed.Seconds()))
		}
	}
}
