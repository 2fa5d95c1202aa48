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
	// consumer[d] is what the parent of the node last seen at depth d reads:
	// that node or, inside a chain of reuse wrappers, the chain's top. A leaf's
	// scan that tests a key set is recorded under the operator its consumer
	// reads, so two consumers of one shared leaf each have a line of their
	// own; any other chain's actuals are the operator it unwraps to.
	consumer := make([]operators.Operator, 0, 8)
	for _, n := range nodes {
		om := qstore.OpMetrics{Op: n.Op.Description(), Depth: n.Depth}
		consumer = append(consumer[:n.Depth], n.Op)
		if n.Depth > 0 && operators.Unwrap(consumer[n.Depth-1]) != consumer[n.Depth-1] {
			consumer[n.Depth] = consumer[n.Depth-1]
		}
		inner := operators.Unwrap(n.Op)
		st, ok := c.Op(consumer[n.Depth])
		if !ok {
			st, ok = c.Op(inner)
		}
		if !ok {
			// Never evaluated (e.g. a subtree skipped after a failure).
			om.NotExecuted = true
			out = append(out, om)
			continue
		}
		om.Act = st.Rows
		om.Note = st.Note
		om.WallNs = int64(st.Wall)
		if c, ok := n.Op.(*operators.Cached); ok {
			om.Shared = c.Shared()
		}
		var sim time.Duration
		for _, stage := range st.Stages {
			if s, found := spans[stage]; found {
				sim += s.SimTime(cost)
				om.MemBytes += s.MemBytes()
			}
		}
		om.SimNs = int64(sim)
		// A leaf a join read in place reports the rows the join made of it,
		// which its label-sized estimate does not describe.
		if est, hasEst := r.Plan.Estimates[n.Op]; hasEst && !st.InPlace {
			om.Est = est
			om.HasEstimate = true
			om.QError = qstore.QError(est, st.Rows)
		}
		out = append(out, om)
	}
	return out
}

// joinYield is the yield of the join at ops[i] - its output rows over its
// larger input's - if it is an operator of two inputs and they wrote rows.
// Its inputs are the nodes after it one level deeper, up to the next node at
// its level or above.
func joinYield(ops []qstore.OpMetrics, i int) (float64, bool) {
	var inputs int
	var in int64
	for j := i + 1; j < len(ops) && ops[j].Depth > ops[i].Depth; j++ {
		if ops[j].Depth == ops[i].Depth+1 {
			inputs++
			in = max(in, ops[j].Act)
		}
	}
	if inputs != 2 || in == 0 {
		return 0, false
	}
	return float64(ops[i].Act) / float64(in), true
}

// AnalyzedPlan renders the executed plan annotated, per operator, with
// actual output cardinality, a join's yield, estimate q-error, self wall
// time (children excluded), the simulated cluster time of the operator's
// stages, and — when memory governance metered the run — the materialized
// bytes charged to the broker. It requires the query to have run with Config.Trace set;
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
		if y, ok := joinYield(ops, i-1); ok {
			annot += fmt.Sprintf(" yield=%.3g", y)
		}
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
