package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"

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
// clock. Failed attempts retain their spans in a bounded ledger until the
// job resolves; see telemetryLedger.

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

// Retention caps for the worker-side span ledger. A retried job retains at
// most maxRetainedSpansPerJob spans across all of its attempts (oldest
// attempts evicted first), and at most maxRetainedJobs jobs hold retained
// spans at once (oldest job evicted first) — so a coordinator that keeps
// retrying, or never resolves a job, cannot grow a worker's memory without
// bound.
const (
	maxRetainedSpansPerJob = 512
	maxRetainedJobs        = 8
)

// attemptSpans is one attempt's retained span set.
type attemptSpans struct {
	attempt int
	spans   []trace.Span
}

// telemetryLedger bounds the spans a worker retains across a job's
// attempts. Before the ledger existed, each job attempt allocated a fresh
// collector and its spans stayed reachable for as long as the attempt's
// runtime did — a job that crashed and retried kept every superseded
// attempt's spans alive with nothing ever dropping them. The ledger makes
// retention explicit and bounded: failed attempts park their spans here
// (capped), and the moment the winning attempt's bundle ships, every
// superseded attempt's spans are dropped.
type telemetryLedger struct {
	mu      sync.Mutex
	jobs    map[uint64][]attemptSpans
	order   []uint64 // job insertion order, oldest first
	dropped atomic.Int64
}

func newTelemetryLedger() *telemetryLedger {
	return &telemetryLedger{jobs: map[uint64][]attemptSpans{}}
}

// retain parks one attempt's spans until the job resolves, enforcing both
// caps.
func (l *telemetryLedger) retain(jobID uint64, attempt int, spans []trace.Span) {
	l.mu.Lock()
	defer l.mu.Unlock()
	entries, known := l.jobs[jobID]
	if !known {
		for len(l.order) >= maxRetainedJobs {
			evicted := l.order[0]
			l.order = l.order[1:]
			for _, e := range l.jobs[evicted] {
				l.dropped.Add(int64(len(e.spans)))
			}
			delete(l.jobs, evicted)
		}
		l.order = append(l.order, jobID)
	}
	// Enforce the per-job span cap: evict whole superseded attempts first,
	// then truncate the newest attempt's own spans if it alone exceeds it.
	held := 0
	for _, e := range entries {
		held += len(e.spans)
	}
	for held+len(spans) > maxRetainedSpansPerJob && len(entries) > 0 {
		l.dropped.Add(int64(len(entries[0].spans)))
		held -= len(entries[0].spans)
		entries = entries[1:]
	}
	if len(spans) > maxRetainedSpansPerJob {
		l.dropped.Add(int64(len(spans) - maxRetainedSpansPerJob))
		spans = spans[len(spans)-maxRetainedSpansPerJob:]
	}
	l.jobs[jobID] = append(entries, attemptSpans{attempt: attempt, spans: spans})
}

// ship returns the winning attempt's spans and drops the job's entire
// retained set — the superseded attempts' spans are released here, which
// is the leak fix's whole point.
func (l *telemetryLedger) ship(jobID uint64, attempt int) []trace.Span {
	l.mu.Lock()
	defer l.mu.Unlock()
	entries := l.jobs[jobID]
	var won []trace.Span
	for _, e := range entries {
		if e.attempt == attempt {
			won = e.spans
		} else {
			l.dropped.Add(int64(len(e.spans)))
		}
	}
	delete(l.jobs, jobID)
	for i, id := range l.order {
		if id == jobID {
			l.order = append(l.order[:i], l.order[i+1:]...)
			break
		}
	}
	return won
}

// retained reports the total spans currently held across all jobs.
func (l *telemetryLedger) retained() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, entries := range l.jobs {
		for _, e := range entries {
			n += len(e.spans)
		}
	}
	return n
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
func newWorkerInstruments(r *obs.Registry, w *Worker) *workerInstruments {
	if r == nil {
		return &workerInstruments{}
	}
	r.NewGaugeFunc("gradoop_worker_spans_retained",
		"Spans held in the telemetry ledger awaiting job resolution",
		func() float64 { return float64(w.RetainedSpans()) })
	r.NewCounterFunc("gradoop_worker_spans_dropped_total",
		"Retained spans dropped by supersession or the ledger caps",
		func() float64 { return float64(w.tele.dropped.Load()) })
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
