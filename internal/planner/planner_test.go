package planner

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"gradoop/internal/cypher"
	"gradoop/internal/dataflow"
	"gradoop/internal/epgm"
	"gradoop/internal/operators"
	"gradoop/internal/stats"
)

// skewedGraph has many Posts, few Persons, so label cardinalities matter for
// join ordering.
func skewedGraph(workers int) *epgm.LogicalGraph {
	env := dataflow.NewEnv(dataflow.DefaultConfig(workers))
	var vertices []epgm.Vertex
	var persons []epgm.Vertex
	for i := 0; i < 5; i++ {
		v := epgm.Vertex{ID: epgm.NewID(), Label: "Person",
			Properties: epgm.Properties{}.Set("name", epgm.PVString(string(rune('a'+i))))}
		persons = append(persons, v)
		vertices = append(vertices, v)
	}
	var edges []epgm.Edge
	for i := 0; i < 200; i++ {
		post := epgm.Vertex{ID: epgm.NewID(), Label: "Post"}
		vertices = append(vertices, post)
		edges = append(edges, epgm.Edge{ID: epgm.NewID(), Label: "hasCreator",
			Source: post.ID, Target: persons[i%len(persons)].ID})
	}
	for i := 0; i < 4; i++ {
		edges = append(edges, epgm.Edge{ID: epgm.NewID(), Label: "knows",
			Source: persons[i].ID, Target: persons[i+1].ID})
	}
	return epgm.GraphFromSlices(env, "G", vertices, edges)
}

// ringGraph has eight persons who know the next three on a ring: a two-path
// is expected to be larger than an edge, so it is a closing join's right
// input.
func ringGraph() *epgm.LogicalGraph {
	var vs []epgm.Vertex
	var es []epgm.Edge
	for i := range 8 {
		vs = append(vs, epgm.Vertex{ID: epgm.ID(1 + i), Label: "Person"})
		for hop := 1; hop <= 3; hop++ {
			es = append(es, epgm.Edge{ID: epgm.ID(100 + len(es)), Label: "knows", Source: epgm.ID(1 + i), Target: epgm.ID(1 + (i+hop)%8)})
		}
	}
	return epgm.GraphFromSlices(dataflow.NewEnv(dataflow.DefaultConfig(2)), "G", vs, es)
}

func plan(t *testing.T, g *epgm.LogicalGraph, query string) *QueryPlan {
	t.Helper()
	ast, err := cypher.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	qg, err := cypher.BuildQueryGraph(ast, nil)
	if err != nil {
		t.Fatal(err)
	}
	pl := &Planner{Stats: stats.Collect(g), Morph: operators.Morphism{}}
	qp, err := pl.Plan(PlainAccess{Graph: g}, qg)
	if err != nil {
		t.Fatal(err)
	}
	return qp
}

func TestPlanExecutesSimpleQuery(t *testing.T) {
	g := skewedGraph(2)
	qp := plan(t, g, `MATCH (p:Person)-[:knows]->(q:Person) RETURN *`)
	if got := qp.Execute().Count(); got != 4 {
		t.Fatalf("matches=%d want 4\n%s", got, qp.Explain())
	}
}

func TestPlannerStartsFromSelectiveSide(t *testing.T) {
	g := skewedGraph(2)
	// knows (4 edges) is far more selective than hasCreator (200); the
	// greedy planner must join knows before touching hasCreator.
	qp := plan(t, g, `MATCH (post:Post)-[:hasCreator]->(p:Person), (p)-[:knows]->(q:Person) RETURN *`)
	explain := qp.Explain()
	// The first (deepest) join must be on the knows side: its estimate is
	// lower. Verify by checking that the root join's left subtree contains
	// the knows leaf.
	join, ok := qp.Root.(*operators.JoinEmbeddings)
	if !ok {
		t.Fatalf("root is %T\n%s", qp.Root, explain)
	}
	if !strings.Contains(join.Left.Description()+deepDescriptions(join.Left), "knows") {
		t.Fatalf("expected knows-side joined first (build side)\n%s", explain)
	}
	if got := qp.Execute().Count(); got != 160 {
		// 4 knows pairs × 40 posts per person.
		t.Fatalf("matches=%d want 160", got)
	}
}

func deepDescriptions(op operators.Operator) string {
	s := op.Description()
	for _, c := range op.Children() {
		s += deepDescriptions(c)
	}
	return s
}

func TestPlannerEstimatesRecorded(t *testing.T) {
	g := skewedGraph(1)
	qp := plan(t, g, `MATCH (p:Person)-[:knows]->(q) RETURN *`)
	if len(qp.Estimates) == 0 {
		t.Fatal("no estimates recorded")
	}
	if _, ok := qp.Estimates[qp.Root]; !ok {
		t.Fatal("root estimate missing")
	}
}

func TestPlannerEqualitySelectivity(t *testing.T) {
	g := skewedGraph(1)
	st := stats.Collect(g)
	pl := &Planner{Stats: st}
	ast, _ := cypher.Parse(`MATCH (p:Person) WHERE p.name = 'a' RETURN *`)
	qg, _ := cypher.BuildQueryGraph(ast, nil)
	qp, err := pl.Plan(PlainAccess{Graph: g}, qg)
	if err != nil {
		t.Fatal(err)
	}
	// 5 persons, 5 distinct names => estimate 1.
	if est := qp.Estimates[qp.Root]; est != 1 {
		t.Fatalf("estimate=%f want 1", est)
	}
	if got := qp.Execute().Count(); got != 1 {
		t.Fatalf("matches=%d", got)
	}
}

func TestPlannerVarLengthExpansion(t *testing.T) {
	g := skewedGraph(2)
	qp := plan(t, g, `MATCH (p:Person)-[e:knows*1..2]->(q:Person) RETURN *`)
	if !strings.Contains(qp.Explain(), "ExpandEmbeddings") {
		t.Fatalf("no expand in plan:\n%s", qp.Explain())
	}
	// Paths: 4 single hops + 3 two-hop chains.
	if got := qp.Execute().Count(); got != 7 {
		t.Fatalf("matches=%d want 7\n%s", got, qp.Explain())
	}
}

func TestPlannerCartesianFallback(t *testing.T) {
	g := skewedGraph(1)
	qp := plan(t, g, `MATCH (p:Person), (q:Person) RETURN *`)
	if !strings.Contains(qp.Explain(), "CartesianProduct") {
		t.Fatalf("expected cartesian product:\n%s", qp.Explain())
	}
	if got := qp.Execute().Count(); got != 25 {
		t.Fatalf("matches=%d want 25", got)
	}
}

func TestPlannerIndexedAccessScansLess(t *testing.T) {
	g := skewedGraph(4)
	idx := epgm.BuildIndex(g)
	ast, _ := cypher.Parse(`MATCH (p:Person)-[:knows]->(q:Person) RETURN *`)
	qg, _ := cypher.BuildQueryGraph(ast, nil)
	st := stats.Collect(g)

	run := func(access GraphAccess) int64 {
		env := access.Env()
		env.ResetMetrics()
		pl := &Planner{Stats: st}
		qp, err := pl.Plan(access, qg)
		if err != nil {
			t.Fatal(err)
		}
		if got := qp.Execute().Count(); got != 4 {
			t.Fatalf("matches=%d", got)
		}
		return env.Metrics().TotalCPU
	}
	plainWork := run(PlainAccess{Graph: g})
	indexedWork := run(IndexedAccess{Index: idx})
	if indexedWork >= plainWork {
		t.Fatalf("indexed access should process fewer elements: plain=%d indexed=%d", plainWork, indexedWork)
	}
}

// TestLeftDeepPlannerAgreesWithGreedy: the left-deep order and the greedy
// one plan a query into rows carrying the same variables and the same bag of
// bindings - over the paths the two share: reuse, a predicate pending until a
// join, the exists() and OPTIONAL MATCH tail, and key sets. A left-deep plan
// joins nothing but leaves on the right, so none of its joins has a target
// for a key set (JoinEmbeddings.PlaceKeySets); the greedy plan of the cycle
// has one.
func TestLeftDeepPlannerAgreesWithGreedy(t *testing.T) {
	skewed, ring := skewedGraph(3), ringGraph()
	for _, tc := range []struct {
		g       *epgm.LogicalGraph
		src     string
		filters bool // the greedy plan hands a key set
	}{
		{skewed, `MATCH (p:Person)-[:knows]->(q:Person) RETURN *`, false},
		{skewed, `MATCH (post:Post)-[:hasCreator]->(p:Person), (p)-[:knows]->(q:Person) RETURN *`, false},
		{skewed, `MATCH (p:Person)-[e:knows*1..2]->(q:Person) RETURN *`, true},
		{skewed, `MATCH (p:Person) WHERE p.name = 'a' RETURN *`, false},
		{skewed, `MATCH (p:Person), (q:Post) RETURN *`, false},
		{skewed, `MATCH (p:Person) OPTIONAL MATCH (p)-[:knows]->(q:Person) RETURN *`, false},
		{skewed, `MATCH (p:Person) WHERE exists((p)-[:knows]->(:Person)) RETURN *`, false},
		{skewed, `MATCH (p:Person) WHERE NOT exists((p)-[:knows]->(:Person)) RETURN *`, false},
		{skewed, `MATCH (post:Post)-[:hasCreator]->(p:Person), (p)-[:knows]->(q:Person) WHERE p.name = 'a' OR q.name = 'e' RETURN *`, false},
		{ring, `MATCH (a:Person)-[:knows]->(b:Person), (b)-[:knows]->(c:Person), (a)-[:knows]->(c) RETURN *`, true},
	} {
		ast, err := cypher.Parse(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		qg, err := cypher.BuildQueryGraph(ast, nil)
		if err != nil {
			t.Fatal(err)
		}
		pl := &Planner{Stats: stats.Collect(tc.g), Morph: operators.Morphism{Edge: operators.Isomorphism}}
		greedy, err := pl.Plan(PlainAccess{Graph: tc.g}, qg)
		if err != nil {
			t.Fatalf("%s: greedy: %v", tc.src, err)
		}
		leftDeep, err := pl.PlanLeftDeep(PlainAccess{Graph: tc.g}, qg)
		if err != nil {
			t.Fatalf("%s: left-deep: %v", tc.src, err)
		}
		for _, n := range leftDeep.Nodes() {
			var right operators.Operator
			switch op := n.Op.(type) {
			case *operators.JoinEmbeddings:
				right = op.Right
			case *operators.CartesianProduct:
				right = op.Right
			default:
				continue
			}
			if joins, _ := targets(&QueryPlan{Root: right}); joins > 0 {
				t.Fatalf("%s: a left-deep join's right input joins\n%s", tc.src, leftDeep.Explain())
			}
		}
		if _, n := targets(greedy); (n > 0) != tc.filters {
			t.Fatalf("%s: %d joins of the greedy plan hand a key set\n%s", tc.src, n, greedy.Explain())
		}
		vars := slices.Sorted(slices.Values(greedy.Meta().Vars()))
		if got := slices.Sorted(slices.Values(leftDeep.Meta().Vars())); !slices.Equal(got, vars) {
			t.Fatalf("%s: left-deep rows carry %q, greedy rows %q", tc.src, got, vars)
		}
		want, got := bag(greedy, vars), bag(leftDeep, vars)
		if len(want) == 0 || !slices.Equal(got, want) {
			t.Fatalf("%s: left-deep %d rows, greedy %d\n%s\n%s", tc.src, len(got), len(want), leftDeep.Explain(), greedy.Explain())
		}
	}
}

// targets counts the inner joins of qp and those of them that hand a key set.
func targets(qp *QueryPlan) (joins, filtering int) {
	for _, n := range qp.Nodes() {
		if j, ok := n.Op.(*operators.JoinEmbeddings); ok {
			joins++
			if len(j.KeySets()) > 0 {
				filtering++
			}
		}
	}
	return joins, filtering
}

// bag runs qp and returns its rows as a sorted multiset, each row its
// bindings of vars.
func bag(qp *QueryPlan, vars []string) []string {
	meta := qp.Meta()
	var rows []string
	for _, e := range qp.Execute().Collect() {
		var sb strings.Builder
		for _, v := range vars {
			switch c, _ := meta.Column(v); {
			case e.IsNullAt(c):
				fmt.Fprintf(&sb, "%s=NULL ", v)
			case e.IsPath(c):
				fmt.Fprintf(&sb, "%s=%v ", v, e.Path(c))
			default:
				fmt.Fprintf(&sb, "%s=%v ", v, e.ID(c))
			}
		}
		rows = append(rows, sb.String())
	}
	slices.Sort(rows)
	return rows
}

func TestPlannerRejectsEmptyQueryGraph(t *testing.T) {
	g := skewedGraph(1)
	pl := &Planner{Stats: stats.Collect(g)}
	if _, err := pl.Plan(PlainAccess{Graph: g}, cypher.AssembleQueryGraph(nil, nil, nil, cypher.ReturnClause{Star: true})); err == nil {
		t.Fatal("expected error for empty query graph")
	}
}

// TestOnlyTheMandatoryPatternFilters: the planner has the joins of a query's
// mandatory pattern filter their right input where it can
// (JoinEmbeddings.PlaceKeySets), and the joins of an OPTIONAL MATCH group none:
// the same triangle takes a key set as the pattern and none as the group. A
// join over a path whose far end it joins on hands the expansion an end set
// and its transfer.
func TestOnlyTheMandatoryPatternFilters(t *testing.T) {
	g := ringGraph()
	const triangle = `(a:Person)-[:knows]->(b:Person), (b)-[:knows]->(c:Person), (a)-[:knows]->(c)`
	qp := plan(t, g, `MATCH `+triangle+` RETURN *`)
	if _, n := targets(qp); n != 1 {
		t.Fatalf("the triangle's closing join takes no key set\n%s", qp.Explain())
	}
	qp = plan(t, g, `MATCH (a:Person) OPTIONAL MATCH (a)-[:knows]->(b:Person), (b)-[:knows]->(c:Person), (a)-[:knows]->(c) RETURN *`)
	if joins, n := targets(qp); joins < 3 || n != 0 {
		t.Fatalf("%d of %d joins of a plan whose triangle is an OPTIONAL MATCH group take a key set\n%s", n, joins, qp.Explain())
	}
	// Not for want of a target: the group's closing join has one.
	for _, n := range qp.Nodes() {
		if j, ok := n.Op.(*operators.JoinEmbeddings); ok {
			j.PlaceKeySets()
		}
	}
	if _, n := targets(qp); n != 1 {
		t.Fatalf("the group's triangle has no join that could take a key set\n%s", qp.Explain())
	}
	// A path whose far end is the join variable takes the set too. An
	// OPTIONAL MATCH group holds no variable-length path (the parser refuses
	// one), so no group has an expansion to hand a set to.
	qp = plan(t, g, `MATCH (a)-[:knows]->(b:Person), (c:Person)-[:knows*1..2]->(b) WHERE a.n = 1 RETURN *`)
	if _, n := targets(qp); n != 1 {
		t.Fatalf("the join over the path takes no key set\n%s", qp.Explain())
	}
	for _, n := range qp.Nodes() {
		if j, ok := n.Op.(*operators.JoinEmbeddings); ok && len(j.KeySets()) > 0 {
			// The end set and its transfer across the path.
			sets := j.KeySets()
			if s := sets[0]; len(sets) != 2 || !s.End() || sets[1].Target != s.Target {
				t.Fatalf("the join over the path hands %d sets, the first to %s, end set %v\n%s", len(sets), s.Target.Description(), s.End(), qp.Explain())
			}
			if _, ok := sets[1].Transfer(); !ok {
				t.Fatalf("the end set's second set is no transfer\n%s", qp.Explain())
			}
		}
	}
}
