// An external test package: the pinned queries are the paper's Q1-Q6, which
// live in internal/benchkit, and benchkit imports core.
package core_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"gradoop/internal/benchkit"
	"gradoop/internal/core"
	"gradoop/internal/dataflow"
	"gradoop/internal/epgm"
	"gradoop/internal/ldbc"
	"gradoop/internal/operators"
)

// goldenGraph builds the fixed graph the layout goldens were recorded on.
// The generator draws ids from a process-wide counter, so what it hands out
// depends on what ran before; it allocates them densely and in a fixed
// order, though, so rebasing them onto a constant makes every id - and with
// it every shuffle destination - the same in any process.
func goldenGraph(workers int) (*epgm.LogicalGraph, string) {
	src := ldbc.Generate(dataflow.NewEnv(dataflow.DefaultConfig(1)), ldbc.Config{ScaleFactor: 0.05, Seed: 7})
	vs := src.Graph.Vertices.Collect()
	es := src.Graph.Edges.Collect()
	lo := vs[0].ID
	for _, v := range vs {
		lo = min(lo, v.ID)
	}
	for _, e := range es {
		lo = min(lo, e.ID)
	}
	const base = 1_000_000
	rebase := func(id epgm.ID) epgm.ID { return id - lo + base }
	vertices := make([]epgm.Vertex, len(vs))
	for i, v := range vs {
		vertices[i] = epgm.Vertex{ID: rebase(v.ID), Label: v.Label, Properties: v.Properties}
	}
	edges := make([]epgm.Edge, len(es))
	for i, e := range es {
		edges[i] = epgm.Edge{ID: rebase(e.ID), Label: e.Label, Source: rebase(e.Source), Target: rebase(e.Target), Properties: e.Properties}
	}
	common, _, _ := src.FirstNamesBySelectivity()
	return epgm.GraphFromSlices(dataflow.NewEnv(dataflow.DefaultConfig(workers)), "", vertices, edges), common
}

// layoutGolden holds, per query and partition count, what the cost model saw
// and what came out, recorded at the commit before the embedding became one
// buffer carved from a slab. The row layout, the slab, the count-then-place
// shuffle and the index-chain join table must all be invisible here: same
// net bytes and CPU elements on every worker (so every row went to the same
// partition with the same accounted size), same stage and shuffle counts,
// and the same rows in the same order. The stages, shuffles, cpu and net of
// Q2 and Q3 - and only those - were recorded again when a variable-length
// expansion began to shuffle and hash its edges once, not once per hop; their
// counts and row hashes are the original ones.
var layoutGolden = map[string]string{
	"Q1/1": "count=172 stages=9 shuffles=4 cpu=[4858] net=[0] rows=336e63a5898474a5",
	"Q1/4": "count=172 stages=9 shuffles=4 cpu=[1080 1083 1321 1374] net=[6895 4915 5384 5149] rows=9b2eada02c6c9103",
	"Q2/1": "count=172 stages=42 shuffles=14 cpu=[10158] net=[0] rows=eb534e79142b6b86",
	"Q2/4": "count=172 stages=42 shuffles=14 cpu=[2346 2715 2390 2707] net=[18665 15060 17986 17171] rows=049fa717c002fca6",
	"Q3/1": "count=21 stages=52 shuffles=20 cpu=[15334] net=[0] rows=f3aac3dd8c6a4089",
	"Q3/4": "count=21 stages=52 shuffles=20 cpu=[3633 3563 3905 4233] net=[32573 31168 32781 34265] rows=9d7db0c6323d488b",
	"Q4/1": "count=298 stages=33 shuffles=16 cpu=[11008] net=[0] rows=14943ba276169f6a",
	"Q4/4": "count=298 stages=33 shuffles=16 cpu=[2802 2779 2641 2786] net=[7375 6246 11806 12244] rows=f857273af86832a6",
	"Q5/1": "count=609 stages=16 shuffles=9 cpu=[9383] net=[0] rows=25b45830eb4fde57",
	"Q5/4": "count=609 stages=16 shuffles=9 cpu=[2823 1659 2261 2640] net=[32264 44786 42830 37013] rows=9739d108670a51c9",
	"Q6/1": "count=257 stages=26 shuffles=13 cpu=[9215] net=[0] rows=e0231a4f334ebcb8",
	"Q6/4": "count=257 stages=26 shuffles=13 cpu=[2709 1994 2263 2249] net=[13771 14879 18592 16929] rows=7bcb37885b7bfe7c",
}

func layoutObserved(t *testing.T, q benchkit.QueryID, workers int) string {
	t.Helper()
	g, common := goldenGraph(workers)
	// The evaluation's semantics: g.cypher(q, HOMO, ISO).
	cfg := core.Config{Vertex: operators.Homomorphism, Edge: operators.Isomorphism}
	if q.Operational() {
		cfg.Params = map[string]epgm.PropertyValue{"firstName": epgm.PVString(common)}
	}
	// Statistics collection runs dataflow stages of its own; take it out of
	// the query's snapshot.
	cfg.Stats = core.GraphStats(g)
	defer core.DropGraphStats(g)
	g.Env().ResetMetrics()
	res, err := core.Execute(g, q.Text(), cfg)
	if err != nil {
		t.Fatalf("%s at %d partitions: %v", q, workers, err)
	}
	m := g.Env().Metrics()
	h := fnv.New64a()
	for _, row := range res.Rows() {
		fmt.Fprintln(h, row.String())
	}
	return fmt.Sprintf("count=%d stages=%d shuffles=%d cpu=%v net=%v rows=%016x",
		res.Count(), m.Stages, m.Shuffles, m.CPUElements, m.NetBytes, h.Sum64())
}

// TestLayoutGolden pins the cost model's view of Q1-Q6 (see layoutGolden).
func TestLayoutGolden(t *testing.T) {
	for _, q := range benchkit.AllQueries {
		for _, workers := range []int{1, 4} {
			key := fmt.Sprintf("%s/%d", q, workers)
			got := layoutObserved(t, q, workers)
			if want := layoutGolden[key]; got != want {
				t.Errorf("got  %q: %q,\nwant %q: %q,", key, got, key, want)
			}
		}
	}
}

// TestPlanIsThePlanExecuteRuns: core.Plan compiles and binds the way Execute
// does, so what -explain prints for Q1-Q6, parameters bound, is the plan that
// would run.
func TestPlanIsThePlanExecuteRuns(t *testing.T) {
	g, common := goldenGraph(4)
	defer core.DropGraphStats(g)
	for _, q := range benchkit.AllQueries {
		cfg := core.Config{Vertex: operators.Homomorphism, Edge: operators.Isomorphism}
		if q.Operational() {
			cfg.Params = map[string]epgm.PropertyValue{"firstName": epgm.PVString(common)}
		}
		plan, err := core.Plan(g, q.Text(), cfg)
		if err != nil {
			t.Fatalf("%s: plan: %v", q, err)
		}
		res, err := core.Execute(g, q.Text(), cfg)
		if err != nil {
			t.Fatalf("%s: execute: %v", q, err)
		}
		if planned, ran := plan.Explain(), res.Explain(); planned != ran {
			t.Errorf("%s: planned\n%s\nran\n%s", q, planned, ran)
		}
	}
}
