package planner

import (
	"strings"
	"testing"

	"gradoop/internal/cypher"
	"gradoop/internal/operators"
	"gradoop/internal/stats"
)

// triangleQuery is Q5's shape: three structurally identical vertex leaves
// and three identical edge leaves.
const triangleQuery = `
	MATCH (p1:Person)-[:knows]->(p2:Person),
	      (p2)-[:knows]->(p3:Person),
	      (p1)-[:knows]->(p3)
	RETURN *`

func planWith(t *testing.T, disableReuse bool) (*QueryPlan, *Planner) {
	t.Helper()
	g := skewedGraph(2)
	ast, err := cypher.Parse(triangleQuery)
	if err != nil {
		t.Fatal(err)
	}
	qg, err := cypher.BuildQueryGraph(ast, nil)
	if err != nil {
		t.Fatal(err)
	}
	pl := &Planner{Stats: stats.Collect(g), Morph: operators.Morphism{Edge: operators.Isomorphism},
		DisableReuse: disableReuse}
	qp, err := pl.Plan(PlainAccess{Graph: g}, qg)
	if err != nil {
		t.Fatal(err)
	}
	return qp, pl
}

func countOperators(root operators.Operator, match func(operators.Operator) bool) int {
	seen := map[operators.Operator]bool{}
	n := 0
	var walk func(op operators.Operator)
	walk = func(op operators.Operator) {
		if seen[op] {
			return
		}
		seen[op] = true
		if match(op) {
			n++
		}
		for _, c := range op.Children() {
			walk(c)
		}
	}
	walk(root)
	return n
}

func TestRecurringSubqueriesShareLeaves(t *testing.T) {
	qp, _ := planWith(t, false)
	explain := qp.Explain()
	if !strings.Contains(explain, "Alias") {
		t.Fatalf("no aliases in plan:\n%s", explain)
	}
	// One physical vertex leaf and one physical edge leaf suffice.
	vertexLeaves := countOperators(qp.Root, func(op operators.Operator) bool {
		_, ok := op.(*operators.FilterAndProjectVertices)
		return ok
	})
	edgeLeaves := countOperators(qp.Root, func(op operators.Operator) bool {
		_, ok := op.(*operators.FilterAndProjectEdges)
		return ok
	})
	if vertexLeaves != 1 || edgeLeaves != 1 {
		t.Fatalf("physical leaves: %d vertex, %d edge (want 1 each)\n%s", vertexLeaves, edgeLeaves, explain)
	}

	off, _ := planWith(t, true)
	offVertexLeaves := countOperators(off.Root, func(op operators.Operator) bool {
		_, ok := op.(*operators.FilterAndProjectVertices)
		return ok
	})
	if offVertexLeaves != 3 {
		t.Fatalf("reuse disabled should keep 3 vertex leaves, got %d", offVertexLeaves)
	}
}

func TestReuseReducesWork(t *testing.T) {
	g := skewedGraph(2)
	ast, _ := cypher.Parse(triangleQuery)
	qg, _ := cypher.BuildQueryGraph(ast, nil)
	st := stats.Collect(g)
	run := func(disable bool) int64 {
		pl := &Planner{Stats: st, DisableReuse: disable}
		qp, err := pl.Plan(PlainAccess{Graph: g}, qg)
		if err != nil {
			t.Fatal(err)
		}
		g.Env().ResetMetrics()
		qp.Execute()
		return g.Env().Metrics().TotalCPU
	}
	shared := run(false)
	duplicated := run(true)
	if shared >= duplicated {
		t.Fatalf("reuse should process fewer elements: shared=%d duplicated=%d", shared, duplicated)
	}
}

func TestReuseRespectsDifferentPredicates(t *testing.T) {
	g := skewedGraph(2)
	// The two Person leaves differ in predicates and must NOT unify.
	ast, _ := cypher.Parse(`MATCH (a:Person)-[:knows]->(b:Person) WHERE a.name = 'a' RETURN *`)
	qg, _ := cypher.BuildQueryGraph(ast, nil)
	pl := &Planner{Stats: stats.Collect(g)}
	qp, err := pl.Plan(PlainAccess{Graph: g}, qg)
	if err != nil {
		t.Fatal(err)
	}
	vertexLeaves := countOperators(qp.Root, func(op operators.Operator) bool {
		_, ok := op.(*operators.FilterAndProjectVertices)
		return ok
	})
	if vertexLeaves != 2 {
		t.Fatalf("distinct predicates must keep 2 leaves, got %d\n%s", vertexLeaves, qp.Explain())
	}
	if got := qp.Execute().Count(); got != 1 {
		t.Fatalf("matches=%d", got)
	}
}

func TestAliasOperator(t *testing.T) {
	g := skewedGraph(1)
	ast, _ := cypher.Parse(`MATCH (p:Person) RETURN *`)
	qg, _ := cypher.BuildQueryGraph(ast, nil)
	qv := qg.Vertices[0]
	leaf := operators.NewFilterAndProjectVertices(qv)
	alias := operators.NewAlias(leaf, map[string]string{"p": "q"})
	if !alias.Meta().HasVar("q") || alias.Meta().HasVar("p") {
		t.Fatalf("alias meta: %s", alias.Meta())
	}
	run := func() *operators.Run { return operators.NewRun(PlainAccess{Graph: g}, nil) }
	if alias.Evaluate(run()).Count() != leaf.Evaluate(run()).Count() {
		t.Fatal("alias changed data")
	}
}
