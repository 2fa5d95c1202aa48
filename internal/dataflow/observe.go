package dataflow

import "gradoop/internal/obs"

// Observer publishes the engine's continuous telemetry into an obs.Registry:
// per-stage wall-time histograms keyed by transformation kind, shuffle and
// spill byte counters, and retry counts. It is a reader of the ledger: each
// counter advances once per stage, by what the stage's row sums to when the
// stage closes (Env.closeStage). One Observer is shared by every Env
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
	}
}

// SetObserver installs (or, with nil, removes) the continuous-telemetry
// observer. Must only be called between jobs, like SetTracer. With no
// observer every telemetry hook reduces to a nil check, so disabled
// telemetry is free.
func (e *Env) SetObserver(o *Observer) { e.observer = o }
