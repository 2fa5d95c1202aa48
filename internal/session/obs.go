package session

import (
	"context"
	"log/slog"
	"time"

	"gradoop/internal/dataflow"
	"gradoop/internal/obs"
)

// instruments is the session's continuous-telemetry surface: the engine
// observer plus the service-level counters, gauges and histograms the
// operators' dashboard reads. The counters are also the session's own count
// of requests and cache lookups, which Metrics reads back.
type instruments struct {
	observer *dataflow.Observer

	queries       *obs.Counter
	errors        *obs.CounterVec // by session.Kind name
	planCache     *obs.CounterVec // outcome = hit | miss
	resultCache   *obs.CounterVec // outcome = hit | miss
	admissionWait *obs.Histogram  // slot-wait, nanoseconds scaled to seconds
	queryTime     *obs.Histogram  // whole-request service time
	slowQueries   *obs.Counter
}

// newInstruments registers the session's instruments and gauges into r or,
// when r is nil, into a registry of the session's own that nothing exposes:
// the counters count either way. The gauges read the session's admission
// gate and caches live at scrape time. The engine observer is r's alone, so
// without a registry the engine's hot path records nothing. One registry
// serves one session: registering a second session into the same registry
// panics on the duplicate names, which is the intended guard against
// aggregating two sessions into one exposition by accident.
func newInstruments(r *obs.Registry, s *Session) *instruments {
	own := r
	if own == nil {
		own = obs.NewRegistry()
	}
	in := &instruments{
		observer: dataflow.NewObserver(r),
		queries: own.NewCounter("gradoop_queries_total",
			"Queries served to their end (all outcomes)"),
		errors: own.NewCounterVec("gradoop_query_errors_total",
			"Failed queries by error kind", "kind"),
		planCache: own.NewCounterVec("gradoop_plan_cache_total",
			"Plan cache lookups by outcome", "outcome"),
		resultCache: own.NewCounterVec("gradoop_result_cache_total",
			"Result cache lookups by outcome", "outcome"),
		admissionWait: own.NewHistogram("gradoop_admission_wait_seconds",
			"Time queries waited for an execution slot", obs.ScaleNanos),
		queryTime: own.NewHistogram("gradoop_query_duration_seconds",
			"Whole-request service time, queue wait included", obs.ScaleNanos),
		slowQueries: own.NewCounter("gradoop_slow_queries_total",
			"Queries over the slow-query threshold"),
	}
	own.NewGaugeFunc("gradoop_admission_queue_depth",
		"Requests currently waiting for an execution slot",
		func() float64 { return float64(s.gate.queued()) })
	own.NewGaugeFunc("gradoop_inflight_queries",
		"Queries currently holding an execution slot",
		func() float64 { return float64(s.gate.inFlight()) })
	own.NewGaugeFunc("gradoop_plan_cache_entries",
		"Plans currently cached",
		func() float64 { return float64(s.plans.len()) })
	own.NewGaugeFunc("gradoop_result_cache_bytes",
		"Bytes currently held by the result cache",
		func() float64 { bytes, _ := s.results.usage(); return float64(bytes) })
	own.NewGaugeFunc("gradoop_result_cache_entries",
		"Results currently cached",
		func() float64 { _, entries := s.results.usage(); return float64(entries) })
	if s.broker != nil {
		// Memory-governance surface: the reserved-bytes gauge and the
		// broker's own monotonic counters, read at scrape time (the broker
		// holds the authoritative values; mirroring them into separate
		// counters would invite drift).
		own.NewGaugeFunc("gradoop_mem_budget_bytes",
			"Process-wide memory budget for materialized embeddings",
			func() float64 { return float64(s.broker.Budget()) })
		own.NewGaugeFunc("gradoop_mem_reserved_bytes",
			"Bytes currently reserved against the memory budget",
			func() float64 { return float64(s.broker.Reserved()) })
		own.NewCounterFunc("gradoop_mem_kills_total",
			"Queries killed by the memory budget",
			func() float64 { return float64(s.broker.Kills()) })
		own.NewCounterFunc("gradoop_mem_sheds_total",
			"Budget kills where the victim was shed for another query's overflow",
			func() float64 { return float64(s.broker.Sheds()) })
		own.NewCounterFunc("gradoop_mem_brownouts_total",
			"Brownout sweeps that reclaimed cache bytes under memory pressure",
			func() float64 { return float64(s.broker.Brownouts()) })
	}
	return in
}

// logSlow emits the slow-query log record for an execution settle found
// over the threshold: canonicalized query, analyzed plan (the plain plan
// when the run was not traced), fingerprint and the request's timings,
// correlated with the trace ID the server stamped into the request context.
func (s *Session) logSlow(o outcome, elapsed time.Duration) {
	if s.logger == nil {
		return
	}
	ctx := o.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	s.logger.LogAttrs(ctx, slog.LevelWarn, "slow query",
		slog.String("query", o.canonical),
		slog.String("fingerprint", o.planHash),
		slog.Duration("elapsed", elapsed),
		slog.Duration("queue_wait", o.queueWait),
		slog.Int64("rows", o.count),
		slog.Bool("plan_cache_hit", o.plan == lookupHit),
		slog.String("plan", o.res.AnalyzedPlan()),
	)
}
