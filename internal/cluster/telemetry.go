package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"

	"gradoop/internal/obs"
	"gradoop/internal/trace"
	"gradoop/internal/wire"
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

// telemetryHeaderLen prefixes a frameTelemetry payload:
// jobID u64 | attempt u32 | from u32 | crc u32 (over the bundle body).
const telemetryHeaderLen = 8 + 4 + 4 + 4

// telemetryFrame is one worker's observability shipment for one attempt.
type telemetryFrame struct {
	JobID   uint64
	Attempt int
	From    int // the worker's roster index within the attempt
	Body    []byte
}

func encodeTelemetryFrame(f *telemetryFrame) []byte {
	out := make([]byte, telemetryHeaderLen, telemetryHeaderLen+len(f.Body))
	binary.BigEndian.PutUint64(out[0:], f.JobID)
	binary.BigEndian.PutUint32(out[8:], uint32(f.Attempt))
	binary.BigEndian.PutUint32(out[12:], uint32(f.From))
	binary.BigEndian.PutUint32(out[16:], crc32.ChecksumIEEE(f.Body))
	return append(out, f.Body...)
}

// decodeTelemetryFrame parses and CRC-checks a frameTelemetry payload. The
// body aliases the input. A decode failure here must degrade the report,
// never the query: the outer frame boundary was already validated, so the
// caller skips the bundle and settles the attempt with a partial-telemetry
// marker.
func decodeTelemetryFrame(b []byte) (*telemetryFrame, error) {
	if len(b) < telemetryHeaderLen {
		return nil, fmt.Errorf("cluster: truncated telemetry frame (%d bytes)", len(b))
	}
	f := &telemetryFrame{
		JobID:   binary.BigEndian.Uint64(b[0:]),
		Attempt: int(binary.BigEndian.Uint32(b[8:])),
		From:    int(binary.BigEndian.Uint32(b[12:])),
		Body:    b[telemetryHeaderLen:],
	}
	if want, got := binary.BigEndian.Uint32(b[16:]), crc32.ChecksumIEEE(f.Body); want != got {
		return nil, fmt.Errorf("cluster: telemetry frame CRC mismatch (%08x != %08x)", got, want)
	}
	return f, nil
}

// telemetryBundle is the decoded body of a telemetry frame: who recorded
// it, under which trace identity, how long the attempt ran on that worker,
// the full span set (per-stage, per-partition, per-attempt, times rebased
// to the attempt start) and a snapshot of the worker's metrics registry.
type telemetryBundle struct {
	Node      string
	TraceID   string
	ElapsedNs int64
	Spans     []trace.Span
	Metrics   obs.Snapshot
}

func encodeTelemetryBundle(dst []byte, b *telemetryBundle) []byte {
	dst = wire.AppendString(dst, b.Node)
	dst = wire.AppendString(dst, b.TraceID)
	dst = binary.BigEndian.AppendUint64(dst, uint64(b.ElapsedNs))
	dst = trace.AppendSpans(dst, b.Spans)
	return obs.AppendSnapshot(dst, &b.Metrics)
}

func decodeTelemetryBundle(buf []byte) (*telemetryBundle, error) {
	var b telemetryBundle
	var err error
	if b.Node, buf, err = wire.ReadString(buf); err != nil {
		return nil, fmt.Errorf("cluster: telemetry bundle node: %w", err)
	}
	if b.TraceID, buf, err = wire.ReadString(buf); err != nil {
		return nil, fmt.Errorf("cluster: telemetry bundle trace id: %w", err)
	}
	if len(buf) < 8 {
		return nil, fmt.Errorf("cluster: truncated telemetry bundle elapsed (%d bytes)", len(buf))
	}
	b.ElapsedNs = int64(binary.BigEndian.Uint64(buf))
	buf = buf[8:]
	if b.Spans, buf, err = trace.ReadSpans(buf); err != nil {
		return nil, fmt.Errorf("cluster: telemetry bundle spans: %w", err)
	}
	if b.Metrics, buf, err = obs.ReadSnapshot(buf); err != nil {
		return nil, fmt.Errorf("cluster: telemetry bundle metrics: %w", err)
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("cluster: telemetry bundle has %d trailing bytes", len(buf))
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
