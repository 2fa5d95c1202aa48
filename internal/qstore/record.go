// Package qstore is the engine's persistent query store: one structured
// record per completed execution, appended to segmented JSONL files that
// survive crashes, plus in-memory per-fingerprint aggregates and a
// regression detector flagging query shapes whose latency or q-error
// distribution drifts away from their own history. It is the durable half
// of the adaptive-planning loop: EXPLAIN ANALYZE measures one run, the
// query store remembers all of them.
//
// A nil *Store is a valid, fully disabled store: every method is a
// nil-check no-op, mirroring the nil trace-collector and nil memory-broker
// off switches elsewhere in the engine.
package qstore

import (
	"hash/fnv"
	"strconv"
)

// Outcome classifies how an execution ended. The values mirror
// session.Kind but include the success case: every exit path of
// Session.Execute maps onto exactly one Outcome.
type Outcome string

const (
	OutcomeOK         Outcome = "ok"
	OutcomeInvalid    Outcome = "invalid"
	OutcomeRejected   Outcome = "rejected"
	OutcomeTimeout    Outcome = "timeout"
	OutcomeMemoryKill Outcome = "memory-kill"
	OutcomeError      Outcome = "error"
)

// OpMetrics is the per-operator slice of an analyzed execution: the plan
// node, its estimated and actual cardinality, the q-error between them,
// the memory-broker bytes its stages materialized, and its measured
// self/simulated time. The HTTP /analyze view and the query-store Record
// share this one schema, so a record on disk and an EXPLAIN ANALYZE of the
// same query line up field for field.
type OpMetrics struct {
	// Op is the operator's Description; Depth its position in the Explain
	// rendering (0 = root).
	Op    string `json:"op"`
	Depth int    `json:"depth"`
	// Est is the planner's cardinality estimate; HasEstimate distinguishes
	// a genuine 0-row estimate from "planner recorded none".
	Est         float64 `json:"est,omitempty"`
	HasEstimate bool    `json:"hasEstimate,omitempty"`
	// Act is the operator's actual output cardinality.
	Act int64 `json:"act"`
	// QError is max(est/act, act/est), clamped to ≥ 1 — the planner
	// community's symmetric estimation-error factor. 0 when no estimate.
	QError float64 `json:"qError,omitempty"`
	// MemBytes is the total memory-broker charge of the operator's stages:
	// bytes of embeddings materialized against the process budget.
	MemBytes int64 `json:"memBytes,omitempty"`
	// WallNs is measured per-partition wall time summed over the
	// operator's stages; SimNs the deterministic cost-model time.
	WallNs int64 `json:"wallNs"`
	SimNs  int64 `json:"simNs"`
	// Shared marks operators whose stages were executed once and reused
	// (dataset caching); NotExecuted marks plan subtrees never evaluated.
	Shared      bool `json:"shared,omitempty"`
	NotExecuted bool `json:"notExecuted,omitempty"`
	// Note is what the operator says about how it ran: a join that read a
	// leaf where the store holds it says so and how many elements it read
	// ("walked in place: edges=194", "looked up in place: vertices=387") -
	// that leaf's Act is the rows the join made of it, and it carries no
	// estimate - and a join or a scan that tests a key set what the set
	// dropped ("sip dropped=51").
	Note string `json:"note,omitempty"`
}

// Record is one completed execution. Records are self-contained: replaying
// a segment reproduces the aggregates exactly, so every field the
// aggregates touch (including timestamps) lives here rather than being
// sampled at replay time.
type Record struct {
	// Time is the exit wall-clock instant, unix nanoseconds.
	Time int64 `json:"t"`
	// TraceID correlates the record with the request's X-Trace-Id.
	TraceID string `json:"traceId,omitempty"`
	// Fingerprint identifies the query *shape*: FNV-64a of the
	// canonicalized text (QueryFingerprint). All parameter bindings of one
	// template share it.
	Fingerprint string `json:"fingerprint"`
	// PlanHash identifies the physical plan chosen for this run
	// (planner.Fingerprint). A shape whose PlanHash changes had its plan
	// flip — the regression feed's first suspect.
	PlanHash string `json:"planHash,omitempty"`
	// Query is the canonicalized text.
	Query string `json:"query"`
	// Bucket is the parameter-selectivity bucket: the log10 decade of the
	// actual result cardinality ("0", "1-9", "10-99", ...). It stratifies
	// one template's executions by how selective the bound parameters
	// were — the plan-cache stratification key adaptive planning needs.
	Bucket string `json:"bucket"`
	// Outcome is how the execution ended.
	Outcome Outcome `json:"outcome"`
	// Rows is the result cardinality (0 for failures).
	Rows int64 `json:"rows"`
	// Latency breakdown: total, admission-queue wait, compile (plan-cache
	// lookup included), and execute.
	ElapsedNs int64 `json:"elapsedNs"`
	QueueNs   int64 `json:"queueNs,omitempty"`
	PlanNs    int64 `json:"planNs,omitempty"`
	ExecNs    int64 `json:"execNs,omitempty"`
	// MemBytes is the peak memory-broker reservation the run charged.
	MemBytes int64 `json:"memBytes,omitempty"`
	// Cache provenance.
	PlanCacheHit   bool `json:"planCacheHit,omitempty"`
	ResultCacheHit bool `json:"resultCacheHit,omitempty"`
	// RootQError is the q-error between the plan's root estimate and the
	// actual result cardinality — the always-available drift signal (per
	// operator actuals need a trace collector; the root needs none).
	RootQError float64 `json:"rootQError,omitempty"`
	// Ops carries per-operator metrics for traced runs (/analyze), nil
	// otherwise.
	Ops []OpMetrics `json:"ops,omitempty"`
}

// QueryFingerprint derives the stable query-shape key from canonicalized
// query text: 16 hex digits of FNV-64a. Parameterized executions of one
// template share a fingerprint; the physical plan may still vary (see
// Record.PlanHash).
func QueryFingerprint(canonical string) string {
	h := fnv.New64a()
	h.Write([]byte(canonical))
	return strconv.FormatUint(h.Sum64(), 16)
}

// QError is the symmetric estimation-error factor max(est/act, act/est),
// clamped to ≥ 1. Zero-valued sides clamp to 1 so empty results against
// tiny estimates do not explode.
func QError(est float64, act int64) float64 {
	e, a := est, float64(act)
	if e < 1 {
		e = 1
	}
	if a < 1 {
		a = 1
	}
	if e > a {
		return e / a
	}
	return a / e
}

// SelectivityBucket maps a result cardinality to its log10-decade label:
// "0", "1-9", "10-99", "100-999", ... Bucketing by output decade rather
// than raw count groups executions whose parameters had comparable
// selectivity.
func SelectivityBucket(rows int64) string {
	if rows <= 0 {
		return "0"
	}
	lo := int64(1)
	for lo*10 <= rows {
		lo *= 10
	}
	return strconv.FormatInt(lo, 10) + "-" + strconv.FormatInt(lo*10-1, 10)
}
