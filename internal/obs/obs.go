// Package obs is the continuous-telemetry layer: an allocation-free metrics
// registry (atomic counters, callback gauges, and log-linear histograms with
// p50/p95/p99 extraction), Prometheus text-format exposition, and structured
// logging helpers that correlate every record with the request's trace ID.
//
// The registry mirrors the nil-trace-collector guarantee of internal/trace: a
// nil *Registry hands out nil instruments, and every operation on a nil
// instrument is a nil check — no allocation, no atomic, no lock — so code can
// instrument its hot paths unconditionally and pay nothing when telemetry is
// off. On the enabled path, recording is allocation-free too: counters and
// histogram buckets are preallocated atomics, and vector children are cached
// behind an RWMutex read path.
//
// The package imports nothing from the engine but the field cursor a
// snapshot's wire layout is written with (a leaf itself), so dataflow,
// session, server and trace can all depend on it without cycles.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds a process's metric instruments and renders them in
// Prometheus text exposition format. Instruments are registered once, at
// package or constructor scope (the obsregister analyzer enforces this), and
// recorded into from arbitrarily many goroutines.
//
// A nil *Registry disables telemetry: every NewX constructor returns a nil
// instrument whose methods are no-ops.
type Registry struct {
	mu          sync.Mutex
	instruments []instrument
	names       map[string]struct{}
}

// instrument is anything the registry can expose: it reports its metric name
// (for ordering and duplicate detection) and writes its exposition block.
type instrument interface {
	metricName() string
	expose(sb *strings.Builder)
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	return &Registry{names: map[string]struct{}{}}
}

// register validates the instrument's name and adds it; duplicate names and
// malformed names panic, because both are programming errors caught at
// construction time (instruments are registered once, at startup).
func (r *Registry) register(in instrument) {
	name := in.metricName()
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.names[name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric name %q", name))
	}
	r.names[name] = struct{}{}
	r.instruments = append(r.instruments, in)
}

// validMetricName implements the Prometheus metric-name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		letter := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !letter && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// Counter is a monotonically increasing atomic counter. All methods are
// nil-safe no-ops on a nil receiver.
type Counter struct {
	name, help string
	labels     labelPairs
	v          atomic.Int64
}

// NewCounter registers a counter. Returns nil on a nil registry.
func (r *Registry) NewCounter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{name: name, help: help}
	r.register(c)
	return c
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) metricName() string { return c.name }

func (c *Counter) expose(sb *strings.Builder) {
	header(sb, c.name, c.help, "counter")
	sample(sb, c.name, c.labels, float64(c.v.Load()))
}

// Gauge reports an instantaneous value through a callback, read at scrape
// time — queue depths, cache occupancy, in-flight jobs.
type Gauge struct {
	name, help string
	fn         func() float64
}

// NewGaugeFunc registers a callback gauge. Returns nil on a nil registry.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) *Gauge {
	if r == nil {
		return nil
	}
	g := &Gauge{name: name, help: help, fn: fn}
	r.register(g)
	return g
}

func (g *Gauge) metricName() string { return g.name }

func (g *Gauge) expose(sb *strings.Builder) {
	header(sb, g.name, g.help, "gauge")
	sample(sb, g.name, nil, g.fn())
}

// CounterFunc is a callback-backed counter: the owner of the underlying
// monotonic value (e.g. the memory broker's kill count) keeps it, and the
// registry reads it only at scrape time — no double accounting, no hot-path
// cost.
type CounterFunc struct {
	name, help string
	fn         func() float64
}

// NewCounterFunc registers a callback counter. The callback must be
// monotonically non-decreasing. Returns nil on a nil registry.
func (r *Registry) NewCounterFunc(name, help string, fn func() float64) *CounterFunc {
	if r == nil {
		return nil
	}
	c := &CounterFunc{name: name, help: help, fn: fn}
	r.register(c)
	return c
}

func (c *CounterFunc) metricName() string { return c.name }

func (c *CounterFunc) expose(sb *strings.Builder) {
	header(sb, c.name, c.help, "counter")
	sample(sb, c.name, nil, c.fn())
}

// CounterVec is a family of counters partitioned by one label. Children are
// created on first use and cached; the hot path is an RLock map lookup with
// no allocation.
type CounterVec struct {
	name, help, label string

	mu       sync.RWMutex
	children map[string]*Counter
}

// NewCounterVec registers a one-label counter family. Returns nil on a nil
// registry.
func (r *Registry) NewCounterVec(name, help, label string) *CounterVec {
	if r == nil {
		return nil
	}
	v := &CounterVec{name: name, help: help, label: label, children: map[string]*Counter{}}
	r.register(v)
	return v
}

// With returns the child counter for the given label value, creating it on
// first use. Nil-safe: a nil vec returns a nil counter.
func (v *CounterVec) With(value string) *Counter {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	c := v.children[value]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c := v.children[value]; c != nil {
		return c
	}
	c = &Counter{name: v.name, labels: labelPairs{{v.label, value}}}
	v.children[value] = c
	return c
}

// Value returns the count of the child for the given label value, 0 if it
// has none (or the vec is nil). Unlike With it creates no child, so reading a
// family does not change its exposition.
func (v *CounterVec) Value(value string) int64 {
	if v == nil {
		return 0
	}
	v.mu.RLock()
	c := v.children[value]
	v.mu.RUnlock()
	return c.Value()
}

func (v *CounterVec) metricName() string { return v.name }

func (v *CounterVec) expose(sb *strings.Builder) {
	header(sb, v.name, v.help, "counter")
	v.mu.RLock()
	defer v.mu.RUnlock()
	for _, value := range sortedKeys(v.children) {
		c := v.children[value]
		sample(sb, v.name, c.labels, float64(c.v.Load()))
	}
}

// CounterVec2 is a family of counters partitioned by two labels (for
// endpoint × status code families).
type CounterVec2 struct {
	name, help     string
	label1, label2 string

	mu       sync.RWMutex
	children map[[2]string]*Counter
}

// NewCounterVec2 registers a two-label counter family. Returns nil on a nil
// registry.
func (r *Registry) NewCounterVec2(name, help, label1, label2 string) *CounterVec2 {
	if r == nil {
		return nil
	}
	v := &CounterVec2{name: name, help: help, label1: label1, label2: label2,
		children: map[[2]string]*Counter{}}
	r.register(v)
	return v
}

// With returns the child counter for the given label values, creating it on
// first use. Nil-safe.
func (v *CounterVec2) With(v1, v2 string) *Counter {
	if v == nil {
		return nil
	}
	key := [2]string{v1, v2}
	v.mu.RLock()
	c := v.children[key]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c := v.children[key]; c != nil {
		return c
	}
	c = &Counter{name: v.name, labels: labelPairs{{v.label1, v1}, {v.label2, v2}}}
	v.children[key] = c
	return c
}

func (v *CounterVec2) metricName() string { return v.name }

func (v *CounterVec2) expose(sb *strings.Builder) {
	header(sb, v.name, v.help, "counter")
	v.mu.RLock()
	defer v.mu.RUnlock()
	keys := make([][2]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		c := v.children[k]
		sample(sb, v.name, c.labels, float64(c.v.Load()))
	}
}

// HistogramVec is a family of histograms partitioned by one label (stage
// kind, endpoint). Children share the family's scale.
type HistogramVec struct {
	name, help, label string
	scale             float64

	mu       sync.RWMutex
	children map[string]*Histogram
}

// NewHistogramVec registers a one-label histogram family. scale is the
// exposition multiplier (ScaleNanos for nanosecond observations exposed as
// seconds; 1 for raw units). Returns nil on a nil registry.
func (r *Registry) NewHistogramVec(name, help, label string, scale float64) *HistogramVec {
	if r == nil {
		return nil
	}
	v := &HistogramVec{name: name, help: help, label: label, scale: scale,
		children: map[string]*Histogram{}}
	r.register(v)
	return v
}

// With returns the child histogram for the given label value, creating it on
// first use. Nil-safe.
func (v *HistogramVec) With(value string) *Histogram {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	h := v.children[value]
	v.mu.RUnlock()
	if h != nil {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h := v.children[value]; h != nil {
		return h
	}
	h = newHistogram(v.name, "", v.scale)
	h.labels = labelPairs{{v.label, value}}
	v.children[value] = h
	return h
}

func (v *HistogramVec) metricName() string { return v.name }

func (v *HistogramVec) expose(sb *strings.Builder) {
	header(sb, v.name, v.help, "summary")
	v.mu.RLock()
	defer v.mu.RUnlock()
	for _, value := range sortedKeys(v.children) {
		v.children[value].exposeSamples(sb)
	}
}

// ScaleNanos is the exposition scale for histograms observing nanoseconds
// (time.Duration values) that should be exposed in seconds.
const ScaleNanos = 1e-9

// ObserveSince records the time elapsed since start into the histogram; a
// convenience for latency instrumentation. Nil-safe.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(int64(time.Since(start)))
}

// WritePrometheus renders every registered instrument in Prometheus text
// exposition format (version 0.0.4), sorted by metric name. A nil registry
// writes nothing — an empty exposition is a valid one.
func (r *Registry) WritePrometheus(sb *strings.Builder) {
	if r == nil {
		return
	}
	r.mu.Lock()
	instruments := append([]instrument(nil), r.instruments...)
	r.mu.Unlock()
	sort.SliceStable(instruments, func(i, j int) bool {
		return instruments[i].metricName() < instruments[j].metricName()
	})
	for _, in := range instruments {
		in.expose(sb)
	}
}

// Exposition returns the registry's full Prometheus text exposition.
func (r *Registry) Exposition() string {
	var sb strings.Builder
	r.WritePrometheus(&sb)
	return sb.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
