package session

import (
	"gradoop/internal/core"
	"gradoop/internal/dataflow"
	"gradoop/internal/epgm"
	"gradoop/internal/obs"
	"gradoop/internal/trace"
)

// RemoteExecutor runs a prepared query on an external worker cluster
// instead of the session's in-process environment. The session stays the
// single front door — plan cache, result cache, admission control and the
// query store all work unchanged — and only the dataflow execution moves
// out of process. The implementation lives in internal/cluster; the
// interface lives here so the session does not depend on it.
type RemoteExecutor interface {
	// ExecuteRemote executes prep with the given per-request config (Params,
	// Context, Timeout and the session-wide semantics are read; Access binds
	// the coordinator-side result). The coordinator derives the job's trace
	// identity from cfg.Context (obs.WithTraceID), propagates it to every
	// worker, and — when cfg.Trace is non-nil, signalling the caller wants a
	// trace — merges the spans the workers' done reports carry into the
	// report's cluster-wide Chrome trace, one process lane per worker.
	// The returned Result must be equivalent to prep.Execute's: same rows,
	// same metadata, assembled on the coordinator.
	ExecuteRemote(g *epgm.LogicalGraph, prep *core.Prepared, cfg core.Config) (*core.Result, *ClusterReport, error)
}

// ClusterStage is one executed dataflow stage of a distributed query, with
// the cost model's prediction set against the measured execution: Predicted
// is the stage's simulated time from the per-partition charges (the same
// number a single-process EXPLAIN ANALYZE derives), Actual the slowest
// worker's wall clock, ModelBytes the cost model's cross-partition byte
// charge and WireBytes the bytes the shuffle actually put on the network
// (encoded frames, so the two differ by encoding overhead and by
// process-local partition pairs that never touch a socket).
//
// The per-worker attribution fields answer "which worker made this stage
// slow": WorkerNs[i] is roster member i's wall time for the stage (so
// max(WorkerNs) == Actual by construction), WorkerBytes[i] the shuffle
// bytes it framed, MeanNs the roster mean and Skew = Actual/MeanNs — a
// stage at Skew ≈ 1 is balanced, a stage at Skew ≈ len(WorkerNs) ran on
// one straggler while the rest idled.
type ClusterStage struct {
	Stage      int64  `json:"stage"`
	Op         string `json:"op,omitempty"`
	Kind       string `json:"kind"`
	Shuffle    bool   `json:"shuffle"`
	Predicted  int64  `json:"predictedNs"`
	Actual     int64  `json:"actualNs"`
	ModelBytes int64  `json:"modelBytes"`
	WireBytes  int64  `json:"wireBytes"`

	WorkerNs    []int64 `json:"workerNs,omitempty"`
	WorkerBytes []int64 `json:"workerBytes,omitempty"`
	MeanNs      int64   `json:"meanNs,omitempty"`
	Skew        float64 `json:"skew,omitempty"`
}

// WorkerReport is one worker's contribution to a distributed query as its
// done report tells it.
type WorkerReport struct {
	// Node is the worker's self-reported node name.
	Node string `json:"node"`
	// Spans is how many spans the done report carried for a traced request,
	// and else how many stage records.
	Spans int `json:"spans"`
	// WallNs is the winning attempt's wall time on that worker, from its done
	// report: every request has it.
	WallNs int64 `json:"wallNs"`
}

// ClusterReport describes one distributed execution: the roster size, how
// many attempts it took (>1 means lost-worker recovery re-ran the job on a
// remapped partition assignment), the per-stage predicted-vs-actual table
// with per-worker skew attribution, and the merged per-worker metrics
// (each process charges only its owned partitions, so the merge reproduces
// the single-process totals).
type ClusterReport struct {
	Workers   int            `json:"workers"`
	Attempts  int            `json:"attempts"`
	Recovered bool           `json:"recovered"`
	Stages    []ClusterStage `json:"stages,omitempty"`
	// TraceID is the job's cluster-wide trace identity: the caller's
	// context trace ID when present, else a coordinator-minted job ID.
	// Every worker's spans and logs for this query carry it.
	TraceID       string         `json:"traceId,omitempty"`
	WorkerReports []WorkerReport `json:"workerReports,omitempty"`
	// Trace is the merged cluster-wide Chrome trace (coordinator lane plus
	// one process lane per worker), built only when the request asked for a
	// trace. Not part of the JSON report; the server embeds it in the
	// query response's chromeTrace field.
	Trace   *trace.ChromeTrace       `json:"-"`
	Metrics dataflow.MetricsSnapshot `json:"-"`
}

// WorkerInfo is one roster entry of a running cluster, for the
// /cluster/workers endpoint.
type WorkerInfo struct {
	Node            string `json:"node"`
	Addr            string `json:"addr"`
	Alive           bool   `json:"alive"`
	LastHeartbeatMs int64  `json:"lastHeartbeatMs"`
	// Jobs counts job-done reports received from this worker.
	Jobs int64 `json:"jobs"`
}

// WorkerMetrics pairs a worker's node name with its most recent metrics
// registry snapshot, for the coordinator's federated /metrics view: one the
// worker ships when it is connected and then on the heartbeat after a job, at
// most one heartbeat (500 ms) stale.
type WorkerMetrics struct {
	Node string
	Snap *obs.Snapshot
}

// ClusterIntrospector is the optional observability surface of a
// RemoteExecutor: the roster for /cluster/workers and the last-known
// per-worker registry snapshots for the federated /metrics exposition.
type ClusterIntrospector interface {
	ClusterWorkers() []WorkerInfo
	WorkerMetrics() []WorkerMetrics
}
