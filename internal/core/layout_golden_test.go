// An external test package: the pinned queries are the paper's Q1-Q6, which
// live in internal/benchkit, and benchkit imports core.
package core_test

import (
	"fmt"
	"hash/fnv"
	"os"
	"slices"
	"strings"
	"testing"

	"gradoop/internal/benchkit"
	"gradoop/internal/core"
	"gradoop/internal/dataflow"
	"gradoop/internal/epgm"
	"gradoop/internal/ldbc"
	"gradoop/internal/operators"
	"gradoop/internal/planner"
	"gradoop/internal/trace"
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
// counts and row hashes are the original ones. The net of every query at four
// partitions - and only that - was recorded again when a join began to write
// only the columns the rest of the query reads: fewer bytes cross, the same
// rows to the same partitions. The stages, shuffles, cpu and net of Q5 and Q6
// - and only those - were recorded again when the join that closes a cycle
// began to filter its right input by its left input's keys: one Broadcast
// stage more, the key set's eight bytes a key on the net (at one partition
// too, as a broadcast charges), and fewer rows into the closing join. The
// stages, shuffles, cpu and net of Q2 and Q3 - and only those - were recorded
// again when that filter began to reach a variable-length expansion below the
// closing join: one Broadcast stage more, the key set on the net, and fewer
// input rows or paths the expansion writes. The stages, shuffles, cpu and net
// of Q3 - and only those - were recorded again when its closing join began to
// run its right input first: four key sets for one, three Broadcast stages
// more, their keys on the net, and fewer rows written on both sides. The
// stages, cpu and net of Q3 - and only those - were recorded again when a key
// set began to be tested in the scans of its target's input leaves: the
// shared hasCreator leaf is scanned once for each of its two consumers, one
// FlatMap stage more, and the joins above the scans shuffle and hash a few rows
// where they had every element's.
var layoutGolden = map[string]string{
	"Q1/1": "count=172 stages=9 shuffles=4 cpu=[4858] net=[0] rows=336e63a5898474a5",
	"Q1/4": "count=172 stages=9 shuffles=4 cpu=[1080 1083 1321 1374] net=[6265 4375 4790 4663] rows=9b2eada02c6c9103",
	"Q2/1": "count=172 stages=43 shuffles=15 cpu=[9602] net=[1376] rows=eb534e79142b6b86",
	"Q2/4": "count=172 stages=43 shuffles=15 cpu=[2200 2525 2283 2594] net=[16448 13400 13952 14505] rows=049fa717c002fca6",
	"Q3/1": "count=21 stages=57 shuffles=24 cpu=[12128] net=[2616] rows=f3aac3dd8c6a4089",
	"Q3/4": "count=21 stages=57 shuffles=24 cpu=[2974 2925 2946 3283] net=[14137 13177 13234 14371] rows=9d7db0c6323d488b",
	"Q4/1": "count=298 stages=33 shuffles=16 cpu=[11008] net=[0] rows=14943ba276169f6a",
	"Q4/4": "count=298 stages=33 shuffles=16 cpu=[2802 2779 2641 2786] net=[4801 4131 8242 9058] rows=f857273af86832a6",
	"Q5/1": "count=609 stages=17 shuffles=10 cpu=[7067] net=[2488] rows=25b45830eb4fde57",
	"Q5/4": "count=609 stages=17 shuffles=10 cpu=[2246 1261 1704 1856] net=[17359 21674 27128 24765] rows=9739d108670a51c9",
	"Q6/1": "count=257 stages=27 shuffles=14 cpu=[8229] net=[736] rows=e0231a4f334ebcb8",
	"Q6/4": "count=257 stages=27 shuffles=14 cpu=[2431 1846 1971 1981] net=[5949 8457 13136 11944] rows=7bcb37885b7bfe7c",
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

// TestKeepGolden pins, per yardstick query, what each operator that writes
// rows - a join, a cartesian product, an outer join, an expansion - leaves out
// of its inputs (testdata/keep.golden: the operator's line of EXPLAIN, which
// names it, indented by its depth in the plan), over the plain graph and then,
// under "store", over a pinned store, whose result reads by id what only it
// reads of a vertex's properties. A planner change that widens a row, or
// narrows one, is a diff of that file; on a mismatch the test prints what the
// file would read now.
func TestKeepGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/keep.golden")
	if err != nil {
		t.Fatal(err)
	}
	g, common := goldenGraph(4)
	defer core.DropGraphStats(g)
	var got strings.Builder
	for _, access := range []planner.GraphAccess{nil, planner.IndexedAccess{Index: epgm.BuildIndex(g)}} {
		if access != nil {
			fmt.Fprintf(&got, "store\n")
		}
		for _, q := range benchkit.AllQueries {
			keepLines(t, &got, g, q, core.Config{Vertex: operators.Homomorphism, Edge: operators.Isomorphism, Access: access}, common)
		}
	}
	if got.String() != string(want) {
		t.Errorf("what the operators that write rows leave out moved; testdata/keep.golden would read:\n%s", got.String())
	}
}

// keepLines writes q's section of keep.golden, planned for cfg.
func keepLines(t *testing.T, got *strings.Builder, g *epgm.LogicalGraph, q benchkit.QueryID, cfg core.Config, common string) {
	t.Helper()
	if q.Operational() {
		cfg.Params = map[string]epgm.PropertyValue{"firstName": epgm.PVString(common)}
	}
	plan, err := core.Plan(g, q.Text(), cfg)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	fmt.Fprintf(got, "%s\n", q)
	for _, n := range plan.Nodes() {
		switch n.Op.(type) {
		case *operators.JoinEmbeddings, *operators.CartesianProduct, *operators.OptionalJoinEmbeddings, *operators.ExpandEmbeddings:
			fmt.Fprintf(got, "%s%s\n", strings.Repeat("  ", n.Depth), n.Op.Description())
		}
	}
}

// TestKeySetsSit pins, per yardstick query, every key set its plan hands on
// (operators.KeySet): the join that makes it, its source - the join's left or
// right input, or the leaf it runs first - and variables, the join or
// expansion it goes to, the edge and vertex an end set is transferred across
// and to, and the inputs of that target whose scans test the set or its
// transfer. The scans are what a run over a pinned store did: each query runs
// traced over the store's index, and an input tested a set of its target if
// its analyzed line notes "sip scanned=" and it binds the set's variables. A
// planner change that moves a set, adds one or drops one, or a run that tests
// one elsewhere, fails here by name, not only in the bench's bytes. Over the
// store the result reads what only it reads of a vertex's properties by the
// vertex's id, so the joins named here keep those ids (keep.golden's store
// section).
func TestKeySetsSit(t *testing.T) {
	g, common := goldenGraph(4)
	defer core.DropGraphStats(g)
	idx := epgm.BuildIndex(g)
	const (
		q3          = "JoinEmbeddings(on=comment,p1, HOMO/ISO, drop=__e0,comment,__e1,__e3,__e2)"
		q3Left      = "JoinEmbeddings(on=p2, HOMO/ISO)"
		hasCreator  = "FilterAndProjectEdges((comment)-[__e1:hasCreator]->(p2), preds=0)"
		commentLeaf = "FilterAndProjectVertices(comment:Comment, preds=0)"
	)
	want := map[benchkit.QueryID][]string{
		// Over a pinned store the end set is transferred back across the
		// replyOf walk to the posts its messages reach, which the Post leaf's
		// scan tests.
		benchkit.Q2: {"JoinEmbeddings(on=message, HOMO/ISO, drop=__e0,__e1) | left(message) -> " +
			"ExpandEmbeddings(__e1:replyOf*0..10, reverse, bindTarget=false), end set, " +
			"transferred over __e1 to post, scans Cached of FilterAndProjectVertices(post:Post, preds=0)"},
		benchkit.Q3: {
			q3 + " | leaf p1(p1) -> JoinEmbeddings(on=post, HOMO/ISO), scans Alias(__e1->__e3, comment->post, p2->p1) of " + hasCreator,
			q3 + " | right(comment,p1) -> " + q3Left,
			q3 + " | right(comment) -> JoinEmbeddings(on=comment, HOMO/ISO), scans Cached of " + commentLeaf + ", Cached of " + hasCreator,
			// The join on p1 probes the knows leaf in place and tests the set
			// there.
			q3 + " | right(p1) -> JoinEmbeddings(on=p1, HOMO/ISO)",
		},
		benchkit.Q5: {"JoinEmbeddings(on=p1,p3, HOMO/ISO, drop=__e2,__e0,__e1) | left(p1,p3) -> JoinEmbeddings(on=p2, HOMO/ISO)"},
		benchkit.Q6: {"JoinEmbeddings(on=p2,t1, HOMO/ISO, drop=p2,__e2,t1,__e3,__e1) | left(p2,t1) -> JoinEmbeddings(on=p1, HOMO/ISO, drop=__e0)"},
	}
	for _, q := range benchkit.AllQueries {
		cfg := core.Config{Vertex: operators.Homomorphism, Edge: operators.Isomorphism,
			Access: planner.IndexedAccess{Index: idx}, Trace: trace.NewCollector()}
		if q.Operational() {
			cfg.Params = map[string]epgm.PropertyValue{"firstName": epgm.PVString(common)}
		}
		res, err := core.Execute(g, q.Text(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		// The inputs of each operator whose scans tested a key set.
		nodes, ops := res.Plan.Nodes(), res.AnalyzedOps()
		scanned := map[operators.Operator][]operators.Operator{}
		for i, n := range nodes {
			for k := i + 1; k < len(nodes) && nodes[k].Depth > n.Depth; k++ {
				if nodes[k].Depth == n.Depth+1 && strings.Contains(ops[k].Note, "sip scanned=") {
					scanned[n.Op] = append(scanned[n.Op], nodes[k].Op)
				}
			}
		}
		var got []string
		for _, n := range nodes {
			j, ok := n.Op.(*operators.JoinEmbeddings)
			if !ok {
				continue
			}
			for _, s := range j.KeySets() {
				var scans []string
				for _, in := range scanned[s.Target] {
					if binds(in, s.Vars) {
						scans = append(scans, in.Description()+" of "+operators.Unwrap(in).Description())
					}
				}
				tested := ""
				if len(scans) > 0 {
					tested = ", scans " + strings.Join(scans, ", ")
				}
				// A transfer is told on the line of its end set, which it follows.
				if start, ok := s.Transfer(); ok {
					got[len(got)-1] += ", transferred over " + s.Target.(*operators.ExpandEmbeddings).Edge.Var + " to " + start + tested
					continue
				}
				var source string
				switch s.Source {
				case j.Left:
					source = "left"
				case j.Right:
					source = "right"
				default:
					source = "leaf " + s.Source.Meta().Var(0)
				}
				set := fmt.Sprintf("%s | %s(%s) -> %s", j.Description(), source, strings.Join(s.Vars, ","), s.Target.Description())
				if s.End() {
					set += ", end set"
				}
				got = append(got, set+tested)
			}
		}
		if !slices.Equal(got, want[q]) {
			t.Errorf("%s: key sets\n%s\nwant\n%s", q, strings.Join(got, "\n"), strings.Join(want[q], "\n"))
		}
	}
}

// binds reports whether op's rows bind every variable of vars.
func binds(op operators.Operator, vars []string) bool {
	for _, v := range vars {
		if !op.Meta().HasVar(v) {
			return false
		}
	}
	return true
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
