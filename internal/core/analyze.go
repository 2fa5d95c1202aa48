package core

import (
	"fmt"
	"time"

	"gradoop/internal/operators"
	"gradoop/internal/qstore"
	"gradoop/internal/trace"
)

// This file implements EXPLAIN ANALYZE: the executed plan rendered with,
// per operator, the planner's estimated cardinality next to the actual one
// recorded by the execution tracer, the estimate's q-error, the operator's
// materialized memory-broker bytes, self wall time and the simulated
// cluster time of its stages. It is the direct lens on the evaluation's
// attribution questions — which operator eats the time, and how far the
// cardinality estimates drift (Table 4). The structured form
// (qstore.OpMetrics) is shared with the query store so the HTTP /analyze
// view and a persisted execution record carry one schema.

// traceToken unwraps the reuse wrappers to the operator that actually
// recorded trace statistics: Alias and Cached pass evaluation through to
// their inner operator, so their actuals live under its token.
func traceToken(op operators.Operator) operators.Operator {
	for {
		switch o := op.(type) {
		case *operators.Alias:
			op = o.In
		case *operators.Cached:
			op = o.Inner
		default:
			return op
		}
	}
}

// AnalyzedOps is the execution's per-operator profile in Explain order
// (parent before children), one qstore.OpMetrics per plan node. It requires
// the query to have run with Config.Trace set and is nil otherwise. The
// profile is built on first use and every reader - AnalyzedPlan, the
// /analyze body, the query-store record, the slow-query log - gets the same
// slice: read it, never write it.
func (r *Result) AnalyzedOps() []qstore.OpMetrics {
	if r.Trace == nil {
		return nil
	}
	r.profileOnce.Do(func() { r.profile = r.buildProfile() })
	return r.profile
}

func (r *Result) buildProfile() []qstore.OpMetrics {
	c := r.Trace
	cost := r.Env.Config().Cost()
	spans := map[int64]trace.Span{}
	for _, s := range c.Spans() {
		spans[s.Stage] = s
	}
	nodes := r.Plan.Nodes()
	out := make([]qstore.OpMetrics, 0, len(nodes))
	for _, n := range nodes {
		om := qstore.OpMetrics{Op: n.Op.Description(), Depth: n.Depth}
		inner := traceToken(n.Op)
		st, ok := c.Op(inner)
		if !ok {
			// Never evaluated (e.g. a subtree skipped after a failure).
			om.NotExecuted = true
			out = append(out, om)
			continue
		}
		om.Act = st.Rows
		om.Note = st.Note
		om.WallNs = int64(st.Wall)
		om.Shared = inner != n.Op
		var sim time.Duration
		for _, stage := range st.Stages {
			if s, found := spans[stage]; found {
				sim += s.SimTime(cost)
				om.MemBytes += s.MemBytes()
			}
		}
		om.SimNs = int64(sim)
		if est, hasEst := r.Plan.Estimates[n.Op]; hasEst {
			om.Est = est
			om.HasEstimate = true
			om.QError = qstore.QError(est, st.Rows)
		}
		out = append(out, om)
	}
	return out
}

// AnalyzedPlan renders the executed plan annotated, per operator, with
// actual output cardinality, estimate q-error, self wall time (children
// excluded), the simulated cluster time of the operator's stages, and —
// when memory governance metered the run — the materialized bytes charged
// to the broker. It requires the query to have run with Config.Trace set;
// without a trace it degrades to the plain Explain rendering.
func (r *Result) AnalyzedPlan() string {
	ops := r.AnalyzedOps()
	if ops == nil {
		return r.Plan.Explain()
	}
	// QueryPlan.Nodes and ExplainWith walk the tree in the same order, so
	// the annotator consumes the metrics slice sequentially.
	i := 0
	return r.Plan.ExplainWith(func(op operators.Operator) string {
		om := ops[i]
		i++
		if om.NotExecuted {
			return "[not executed]"
		}
		annot := fmt.Sprintf("act=%d", om.Act)
		if om.Note != "" {
			annot = om.Note + " " + annot
		}
		if om.HasEstimate {
			annot += fmt.Sprintf(" err=%.1fx", om.QError)
		}
		annot += fmt.Sprintf(" self=%s sim=%s",
			time.Duration(om.WallNs).Round(time.Microsecond),
			time.Duration(om.SimNs).Round(time.Microsecond))
		if om.MemBytes > 0 {
			annot += fmt.Sprintf(" mem=%dB", om.MemBytes)
		}
		if om.Shared {
			// Reuse wrappers share the canonical operator's execution.
			annot += " (shared)"
		}
		return "[" + annot + "]"
	})
}
