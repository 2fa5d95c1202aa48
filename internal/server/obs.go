package server

import (
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"gradoop/internal/obs"
)

// httpInstruments is the server's per-endpoint telemetry: request counts by
// endpoint × status code and latency histograms by endpoint. Registered
// once at construction (the obsregister analyzer rejects instrument
// creation inside handlers); nil-instrument recording is free when the
// server runs without a registry.
type httpInstruments struct {
	requests *obs.CounterVec2
	latency  *obs.HistogramVec
}

func newHTTPInstruments(r *obs.Registry) httpInstruments {
	return httpInstruments{
		requests: r.NewCounterVec2("gradoop_http_requests_total",
			"HTTP requests by endpoint and status code", "endpoint", "code"),
		latency: r.NewHistogramVec("gradoop_http_request_seconds",
			"HTTP request service time by endpoint", "endpoint", obs.ScaleNanos),
	}
}

// endpointLabel bounds the endpoint label to the server's known routes so
// scanners probing random paths cannot explode the series cardinality.
func endpointLabel(path string) string {
	switch path {
	case "/query", "/explain", "/analyze", "/metrics", "/metrics.json", "/jobs", "/healthz",
		"/querystore/top", "/querystore/regressions", "/cluster/workers":
		return path
	default:
		if strings.HasPrefix(path, "/querystore/fingerprint/") {
			return "/querystore/fingerprint"
		}
		return "other"
	}
}

// statusWriter captures the response status code for instrumentation and
// the request log. An unset code means the handler wrote a body without an
// explicit WriteHeader, which net/http treats as 200.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Unwrap lets http.ResponseController reach the connection behind the writer.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// observe records one served request into the instruments and the request
// log. ctx carries the request's trace ID, so the log record correlates
// with the X-Trace-Id response header.
func (s *Server) observe(r *http.Request, sw *statusWriter, elapsed time.Duration) {
	endpoint := endpointLabel(r.URL.Path)
	s.obs.requests.With(endpoint, strconv.Itoa(sw.status())).Inc()
	s.obs.latency.With(endpoint).Observe(int64(elapsed))
	if s.logger != nil {
		s.logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status()),
			slog.Duration("elapsed", elapsed),
		)
	}
}

// NewOpsMux returns the operator-only mux: the net/http/pprof profiling
// endpoints and nothing else. Bind it to a loopback or management address
// (cypherd -ops-addr), never the public listener — profiles expose
// internals and cost real CPU.
func NewOpsMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
