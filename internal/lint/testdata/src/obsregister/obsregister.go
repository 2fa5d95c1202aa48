// Package obsregister exercises the obsregister analyzer: obs instruments
// are constructed once at setup and captured; constructing them inside a
// function literal (per-partition UDFs, hot-path closures) or inside an
// HTTP request handler re-registers per invocation and panics on the
// duplicate name.
package obsregister

import (
	"net/http"

	"gradoop/internal/obs"
)

// setup is the sanctioned shape: constructors at setup time, in plain
// function bodies, the instruments captured for later recording.
type setup struct {
	requests *obs.Counter
	latency  *obs.Histogram
	byKind   *obs.CounterVec
}

func newSetup(r *obs.Registry) *setup {
	return &setup{
		requests: r.NewCounter("requests_total", "requests"),
		byKind:   r.NewCounterVec("by_kind_total", "by kind", "kind"),
		latency:  r.NewHistogram("latency_seconds", "latency", obs.ScaleNanos),
	}
}

// gaugeSetup registers a gauge whose callback is a literal — the literal
// only reads; the constructor itself sits in the function body, so this is
// clean.
func gaugeSetup(r *obs.Registry, depth *int) {
	r.NewGaugeFunc("queue_depth", "queued requests", func() float64 {
		return float64(*depth)
	})
}

// recordInUDF records into captured instruments from a closure: recording
// anywhere is fine, only construction is pinned to setup.
func recordInUDF(s *setup, each func(func(int))) {
	each(func(v int) {
		s.requests.Inc()
		s.latency.Observe(int64(v))
		s.byKind.With("map").Inc()
	})
}

// ctorInUDF constructs inside the per-element closure: the second element
// panics on the duplicate name.
func ctorInUDF(r *obs.Registry, each func(func(int))) {
	each(func(v int) {
		c := r.NewCounter("elements_total", "elements") // want `obs instrument NewCounter created inside a function literal`
		c.Add(int64(v))
	})
}

// ctorInNestedLit is flagged regardless of nesting depth.
func ctorInNestedLit(r *obs.Registry) func() {
	return func() {
		func() {
			r.NewHistogramVec("nested_seconds", "nested", "kind", 1) // want `obs instrument NewHistogramVec created inside a function literal`
		}()
	}
}

// counterFuncInLit registers a callback counter per call of the literal.
func counterFuncInLit(r *obs.Registry, each func(func(int))) {
	each(func(int) {
		r.NewCounterFunc("callbacks_total", "callbacks", func() float64 { return 0 }) // want `obs instrument NewCounterFunc created inside a function literal`
	})
}

// handler is an http.HandlerFunc-shaped function constructing per request.
func handler(r *obs.Registry) http.HandlerFunc {
	reg := r
	return func(w http.ResponseWriter, req *http.Request) {
		reg.NewCounterVec2("hits_total", "hits", "endpoint", "code") // want `obs instrument NewCounterVec2 created inside a function literal`
		w.WriteHeader(http.StatusOK)
	}
}

// server carries a registry into method handlers.
type server struct {
	registry *obs.Registry
	hits     *obs.Counter
}

// handleHits constructs inside a request handler method: first request
// registers, second panics on the duplicate.
func (s *server) handleHits(w http.ResponseWriter, r *http.Request) {
	c := s.registry.NewCounter("hits_total", "hits") // want `obs instrument NewCounter created inside a request handler`
	c.Inc()
}

// handleCounterFunc registers a callback counter per request.
func (s *server) handleCounterFunc(w http.ResponseWriter, r *http.Request) {
	s.registry.NewCounterFunc("served_total", "served", func() float64 { return 0 }) // want `obs instrument NewCounterFunc created inside a request handler`
}

// handleClean records into a captured instrument — the sanctioned handler
// shape.
func (s *server) handleClean(w http.ResponseWriter, r *http.Request) {
	s.hits.Inc()
	w.WriteHeader(http.StatusOK)
}

// notAHandler has two params but not the handler shape; construction in a
// plain named function stays allowed.
func notAHandler(r *obs.Registry, name string) *obs.Counter {
	return r.NewCounter(name, "free-form setup helper")
}
