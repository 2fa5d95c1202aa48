package cluster

import (
	"fmt"

	"gradoop/internal/field"
	"gradoop/internal/obs"
	"gradoop/internal/trace"
)

// The distributed telemetry plane's worker half. Every job attempt records
// its spans into a fresh per-job collector; the winning attempt ships them
// — together with a snapshot of the worker's metrics registry — to the
// coordinator in one frameTelemetry, sent on the control connection
// immediately before the attempt's frameJobDone so ordering is free. Span
// times are offsets from the attempt's own start (the collector epoch), so
// bundles from different machines align without trusting anyone's wall
// clock. A failed attempt ships nothing: its spans die with its collector.

// telemetryFrame heads a frameTelemetry payload, one worker's observability
// shipment for one attempt; the body is the encoded telemetryBundle. A header
// or checksum failure here must degrade the report, never the query: the outer
// frame boundary was already validated, so the coordinator skips the bundle
// and settles the attempt with a partial-telemetry marker.
type telemetryFrame struct {
	JobID   uint64
	Attempt int
	From    int // the worker's roster index within the attempt
	crc     uint32
}

func (f *telemetryFrame) layout(c *field.Codec) {
	c.U64(&f.JobID)
	c.Int32(&f.Attempt)
	c.Int32(&f.From)
	c.U32(&f.crc)
}

// telemetryBundle is the body of a telemetry frame: who recorded it, under
// which trace identity, how long the attempt ran on that worker, the full
// span set (per-stage, per-partition, per-attempt, times rebased to the
// attempt start) and a snapshot of the worker's metrics registry.
type telemetryBundle struct {
	Node      string
	TraceID   string
	ElapsedNs int64
	Spans     []trace.Span
	Metrics   obs.Snapshot
}

func (b *telemetryBundle) layout(c *field.Codec) {
	c.String(&b.Node)
	c.String(&b.TraceID)
	c.I64(&b.ElapsedNs)
	trace.LayoutSpans(c, &b.Spans)
	b.Metrics.Layout(c)
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
// snapshot each telemetry bundle carries, federated per-worker by the
// coordinator's /metrics.
type workerInstruments struct {
	jobs      *obs.Counter
	failures  *obs.Counter
	jobTime   *obs.Histogram
	teleBytes *obs.Counter
	shipped   *obs.Counter
}

// newWorkerInstruments registers the worker's instruments. A nil registry
// yields instruments whose fields are all nil — every obs instrument method
// is nil-safe, so callers never guard.
func newWorkerInstruments(r *obs.Registry) *workerInstruments {
	return &workerInstruments{
		jobs: r.NewCounter("gradoop_worker_jobs_total",
			"Job attempts this worker executed"),
		failures: r.NewCounter("gradoop_worker_job_failures_total",
			"Job attempts that ended in an error on this worker"),
		jobTime: r.NewHistogram("gradoop_worker_job_seconds",
			"Per-attempt execution time on this worker", obs.ScaleNanos),
		teleBytes: r.NewCounter("gradoop_worker_telemetry_bytes_total",
			"Encoded telemetry bundle bytes shipped to the coordinator"),
		shipped: r.NewCounter("gradoop_worker_telemetry_bundles_total",
			"Telemetry bundles shipped to the coordinator"),
	}
}
