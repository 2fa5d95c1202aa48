package cluster

import (
	"fmt"
	"sync/atomic"

	"gradoop/internal/field"
	"gradoop/internal/obs"
)

// The distributed telemetry plane's worker half. A worker sends the
// coordinator what it will read, when it will read it (DESIGN decision 18).
// Every job attempt records its spans into a fresh per-job collector, which
// the attempt's done report reads its stage table from; a traced request's
// winning attempt also carries the spans in its done report, the one frame it
// sends. Span times are offsets from the attempt's own start (the collector
// epoch), so lanes from different machines align without trusting anyone's
// wall clock. A failed or untraced attempt ships no spans: they die with its
// collector. The worker's metrics registry rides the heartbeat instead of a
// job: its snapshot is the body of a pong sent once a control connection is
// up, and then of the pong to a ping whenever a job has finished since the
// last.

// encodeSnapshot encodes the worker's registry snapshot: the body of a pong
// that carries one.
func encodeSnapshot(snap *obs.Snapshot) []byte {
	c := field.Appender(nil)
	snap.Layout(&c)
	return c.Bytes()
}

// decodeSnapshot decodes a pong's body, which the snapshot must fill.
func decodeSnapshot(body []byte) (*obs.Snapshot, error) {
	snap := new(obs.Snapshot)
	c := field.Reader(body)
	snap.Layout(&c)
	if err := c.End(); err != nil {
		return nil, fmt.Errorf("cluster: registry snapshot: %w", err)
	}
	return snap, nil
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
	snapshots *obs.Counter
	// plansBuilt and plansReused count the job attempts whose plan this
	// worker made and those that found it in the worker's cache.
	plansBuilt  *obs.Counter
	plansReused *obs.Counter
	// recvSpare and recvHeap count the bytes of the buffers attempts' receive
	// arenas took from the worker's spare list and from the heap, added when
	// an arena goes back; spareBytes is the spare list's size as of then.
	recvSpare  *obs.Counter
	recvHeap   *obs.Counter
	spareBytes atomic.Int64
}

// newWorkerInstruments registers the worker's instruments. A nil registry
// yields instruments whose fields are all nil — every obs instrument method
// is nil-safe, so callers never guard.
func newWorkerInstruments(r *obs.Registry) *workerInstruments {
	plans := r.NewCounterVec("gradoop_worker_plans_total",
		"Job attempts whose plan this worker built (a plan-cache miss) or reused (a hit)", "outcome")
	recv := r.NewCounterVec("gradoop_worker_recv_bytes_total",
		"Bytes of receive memory job attempts took from the worker's spare list or the heap", "from")
	wi := &workerInstruments{
		recvSpare:   recv.With("spare"),
		recvHeap:    recv.With("heap"),
		plansBuilt:  plans.With("built"),
		plansReused: plans.With("reused"),
		jobs: r.NewCounter("gradoop_worker_jobs_total",
			"Job attempts this worker executed"),
		failures: r.NewCounter("gradoop_worker_job_failures_total",
			"Job attempts that ended in an error on this worker"),
		jobTime: r.NewHistogram("gradoop_worker_job_seconds",
			"Per-attempt execution time on this worker", obs.ScaleNanos),
		teleBytes: r.NewCounter("gradoop_worker_telemetry_bytes_total",
			"Encoded registry snapshot bytes shipped to the coordinator on pongs"),
		snapshots: r.NewCounter("gradoop_worker_registry_snapshots_total",
			"Registry snapshots shipped to the coordinator on the heartbeat"),
	}
	r.NewGaugeFunc("gradoop_worker_recv_spare_bytes",
		"Bytes of receive memory the worker keeps between job attempts",
		func() float64 { return float64(wi.spareBytes.Load()) })
	return wi
}
