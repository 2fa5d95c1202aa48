package cluster

import (
	"fmt"

	"gradoop/internal/field"
	"gradoop/internal/obs"
	"gradoop/internal/trace"
)

// The distributed telemetry plane's worker half. A worker sends the
// coordinator what it will read, when it will read it (DESIGN decision 18).
// Every job attempt records its spans into a fresh per-job collector, which
// the attempt's done report reads its stage table from; a traced request's
// winning attempt also ships the spans, in one frameTelemetry sent on the
// control connection immediately before the attempt's done report, so
// ordering is free. Span times are offsets from the attempt's own start (the
// collector epoch), so bundles from different machines align without
// trusting anyone's wall clock. A failed or untraced attempt ships no spans:
// they die with its collector. The worker's metrics registry rides the
// heartbeat instead of a job: a bundle of its snapshot once a control
// connection is up, and then one ahead of the pong to a ping whenever a job
// has finished since the last.

// telemetryBundle is the body of a telemetry frame: who recorded it and
// either a traced attempt's span set (per-stage, per-partition, per-attempt,
// times rebased to the attempt start) under the request's trace identity, or a
// snapshot of the worker's metrics registry.
type telemetryBundle struct {
	Node    string
	TraceID string
	Spans   []trace.Span
	// Metrics is the registry snapshot of a heartbeat's bundle, nil in an
	// attempt's.
	Metrics *obs.Snapshot
}

func (b *telemetryBundle) layout(c *field.Codec) {
	c.String(&b.Node)
	c.String(&b.TraceID)
	trace.LayoutSpans(c, &b.Spans)
	registry := b.Metrics != nil
	c.Bool(&registry)
	if registry {
		if b.Metrics == nil {
			b.Metrics = new(obs.Snapshot)
		}
		b.Metrics.Layout(c)
	}
}

func encodeTelemetryBundle(b *telemetryBundle) []byte {
	c := field.Appender(nil)
	b.layout(&c)
	return c.Bytes()
}

// decodeTelemetryBundle decodes a bundle that fills buf: trailing bytes mean
// the two sides disagree on the layout.
func decodeTelemetryBundle(buf []byte) (*telemetryBundle, error) {
	var b telemetryBundle
	c := field.Reader(buf)
	b.layout(&c)
	if err := c.End(); err != nil {
		return nil, fmt.Errorf("cluster: telemetry bundle: %w", err)
	}
	return &b, nil
}

// workerInstruments is a worker process's own metrics surface. Workers are
// not scraped directly; these series reach operators through the registry
// snapshot the heartbeat carries, federated per-worker by the coordinator's
// /metrics.
type workerInstruments struct {
	jobs      *obs.Counter
	failures  *obs.Counter
	jobTime   *obs.Histogram
	teleBytes *obs.Counter
	shipped   *obs.Counter
	snapshots *obs.Counter
	// plansBuilt and plansReused count the job attempts whose plan this
	// worker made and those that found it in the worker's cache.
	plansBuilt  *obs.Counter
	plansReused *obs.Counter
}

// newWorkerInstruments registers the worker's instruments. A nil registry
// yields instruments whose fields are all nil — every obs instrument method
// is nil-safe, so callers never guard.
func newWorkerInstruments(r *obs.Registry) *workerInstruments {
	plans := r.NewCounterVec("gradoop_worker_plans_total",
		"Job attempts whose plan this worker built (a plan-cache miss) or reused (a hit)", "outcome")
	return &workerInstruments{
		plansBuilt:  plans.With("built"),
		plansReused: plans.With("reused"),
		jobs: r.NewCounter("gradoop_worker_jobs_total",
			"Job attempts this worker executed"),
		failures: r.NewCounter("gradoop_worker_job_failures_total",
			"Job attempts that ended in an error on this worker"),
		jobTime: r.NewHistogram("gradoop_worker_job_seconds",
			"Per-attempt execution time on this worker", obs.ScaleNanos),
		teleBytes: r.NewCounter("gradoop_worker_telemetry_bytes_total",
			"Encoded telemetry bundle bytes shipped to the coordinator"),
		shipped: r.NewCounter("gradoop_worker_telemetry_bundles_total",
			"Span bundles of traced requests shipped to the coordinator"),
		snapshots: r.NewCounter("gradoop_worker_registry_snapshots_total",
			"Registry snapshots shipped to the coordinator on the heartbeat"),
	}
}
