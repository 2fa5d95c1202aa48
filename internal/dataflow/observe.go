package dataflow

import (
	"sync"
	"time"

	"gradoop/internal/obs"
)

// Observer publishes the engine's continuous telemetry into an obs.Registry:
// per-stage wall-time histograms keyed by transformation kind, shuffle and
// spill byte counters, and retry counts. One Observer is shared by every Env
// a service creates (the instruments are registered once, at constructor
// scope — a registry that has been read refuses new ones), unlike the
// per-job trace.Collector.
//
// A nil *Observer disables engine telemetry entirely; every hook the engine
// calls is guarded by a nil check, mirroring the nil-tracer zero-cost
// guarantee (see TestObserverParity and TestDisabledObserverHotPathNoAlloc).
type Observer struct {
	stageTime    *obs.HistogramVec
	stages       *obs.Counter
	shuffleBytes *obs.Counter
	spillBytes   *obs.Counter
	retries      *obs.Counter

	// kindPtrs interns the stage-kind strings so the live-kind pointer an
	// Env publishes for CurrentStage can be swapped atomically without
	// allocating at stage boundaries (kinds are a small static set).
	mu       sync.RWMutex
	kindPtrs map[string]*string
}

// NewObserver registers the engine's instruments into r. Returns nil — the
// disabled, zero-cost observer — when r is nil.
func NewObserver(r *obs.Registry) *Observer {
	if r == nil {
		return nil
	}
	return &Observer{
		stageTime: r.NewHistogramVec("gradoop_stage_duration_seconds",
			"Wall time per dataflow stage, by transformation kind", "kind", obs.ScaleNanos),
		stages: r.NewCounter("gradoop_stages_total",
			"Dataflow stages executed"),
		shuffleBytes: r.NewCounter("gradoop_shuffle_bytes_total",
			"Bytes exchanged between workers in shuffles and broadcasts"),
		spillBytes: r.NewCounter("gradoop_spill_bytes_total",
			"Bytes written and re-read to simulated disk under memory pressure"),
		retries: r.NewCounter("gradoop_stage_retries_total",
			"Partition re-executions after worker failures"),
		kindPtrs: map[string]*string{},
	}
}

// kindPtr returns the interned pointer for a stage kind, creating it on
// first use; the warm path is an RLock map hit with no allocation.
func (o *Observer) kindPtr(kind string) *string {
	o.mu.RLock()
	p := o.kindPtrs[kind]
	o.mu.RUnlock()
	if p != nil {
		return p
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if p := o.kindPtrs[kind]; p != nil {
		return p
	}
	k := kind
	o.kindPtrs[kind] = &k
	return &k
}

// SetObserver installs (or, with nil, removes) the continuous-telemetry
// observer. Must only be called between jobs, like SetTracer. With no
// observer every telemetry hook reduces to a nil check, so disabled
// telemetry is free.
func (e *Env) SetObserver(o *Observer) { e.observer = o }

// obsStageBoundary closes the timing of the previous stage and opens the
// next one. Stage boundaries happen serially on the job's driving goroutine
// (beginStage documents this), so the kind/start fields need no lock.
func (e *Env) obsStageBoundary(kind string) {
	if e.observer == nil {
		return
	}
	now := time.Now()
	if e.obsKind != "" {
		e.observer.stageTime.With(e.obsKind).Observe(int64(now.Sub(e.obsStart)))
	}
	e.obsKind, e.obsStart = kind, now
	e.curKind.Store(e.observer.kindPtr(kind))
	e.observer.stages.Inc()
}

// CurrentStage reports the 1-based number of the stage currently executing
// and its transformation kind, for live job introspection (/jobs). The kind
// is "" unless an observer is installed — the engine only publishes the
// live kind when continuous telemetry is on. Safe to call from any
// goroutine while a job runs.
func (e *Env) CurrentStage() (stage int64, kind string) {
	if p := e.curKind.Load(); p != nil {
		kind = *p
	}
	return e.metrics.stageCount(), kind
}

// obsFinish closes the last open stage timing at job end.
func (e *Env) obsFinish() {
	if e.observer != nil && e.obsKind != "" {
		e.observer.stageTime.With(e.obsKind).Observe(int64(time.Since(e.obsStart)))
		e.obsKind = ""
		e.curKind.Store(nil)
	}
}
