package cypher

import (
	"slices"
	"testing"

	"gradoop/internal/epgm"
)

func buildQG(t *testing.T, src string, params map[string]epgm.PropertyValue) *QueryGraph {
	t.Helper()
	q := mustParse(t, src)
	g, err := BuildQueryGraph(q, params)
	if err != nil {
		t.Fatalf("BuildQueryGraph(%q): %v", src, err)
	}
	return g
}

func TestQueryGraphPaperExample(t *testing.T) {
	g := buildQG(t, `
		MATCH (p1:Person)-[s:studyAt]->(u:University),
		      (p2:Person)-[:studyAt]->(u),
		      (p1)-[e:knows*1..3]->(p2)
		WHERE p1.gender <> p2.gender
		  AND u.name = 'Uni Leipzig'
		  AND s.classYear > 2014
		RETURN *`, nil)

	if len(g.Vertices) != 3 {
		t.Fatalf("vertices=%d want 3 (p1, u, p2)", len(g.Vertices))
	}
	if len(g.Edges) != 3 {
		t.Fatalf("edges=%d want 3", len(g.Edges))
	}
	u, ok := g.VertexByVar("u")
	if !ok || len(u.Predicates) != 1 {
		t.Fatalf("u predicates: %+v", u)
	}
	s, ok := g.EdgeByVar("s")
	if !ok || len(s.Predicates) != 1 {
		t.Fatalf("s predicates: %+v", s)
	}
	e, ok := g.EdgeByVar("e")
	if !ok || !e.IsVarLength() || e.MinHops != 1 || e.MaxHops != 3 {
		t.Fatalf("e: %+v", e)
	}
	if e.Source != "p1" || e.Target != "p2" {
		t.Fatalf("e endpoints: %s->%s", e.Source, e.Target)
	}
	// p1.gender <> p2.gender spans two variables => global.
	if len(g.Global) != 1 {
		t.Fatalf("global=%d want 1", len(g.Global))
	}
	// Projections: p1.gender and p2.gender are needed by the global
	// predicate.
	p1, _ := g.VertexByVar("p1")
	if len(p1.Projection) != 1 || p1.Projection[0] != "gender" {
		t.Fatalf("p1 projection: %v", p1.Projection)
	}
}

func TestQueryGraphUnifiesRepeatedVertexVars(t *testing.T) {
	g := buildQG(t, `MATCH (a:Person)-[:knows]->(b), (b)-[:knows]->(a) RETURN *`, nil)
	if len(g.Vertices) != 2 {
		t.Fatalf("vertices=%d", len(g.Vertices))
	}
	if len(g.Edges) != 2 {
		t.Fatalf("edges=%d", len(g.Edges))
	}
}

func TestQueryGraphDirectionNormalization(t *testing.T) {
	g := buildQG(t, `MATCH (person:Person)<-[:hasCreator]-(message:Comment|Post) RETURN *`, nil)
	e := g.Edges[0]
	if e.Source != "message" || e.Target != "person" {
		t.Fatalf("incoming edge not normalized: %s->%s", e.Source, e.Target)
	}
	msg, _ := g.VertexByVar("message")
	if len(msg.Labels) != 2 {
		t.Fatalf("labels: %v", msg.Labels)
	}
}

func TestQueryGraphAnonymousElements(t *testing.T) {
	g := buildQG(t, `MATCH (:Person)-[]->() RETURN *`, nil)
	if len(g.Vertices) != 2 || len(g.Edges) != 1 {
		t.Fatalf("v=%d e=%d", len(g.Vertices), len(g.Edges))
	}
	for _, v := range g.Vertices {
		if !v.Anonymous {
			t.Fatalf("vertex %q should be anonymous", v.Var)
		}
	}
	if !g.Edges[0].Anonymous {
		t.Fatal("edge should be anonymous")
	}
	// Two anonymous nodes must not unify.
	g2 := buildQG(t, `MATCH ()-[:a]->(), ()-[:b]->() RETURN *`, nil)
	if len(g2.Vertices) != 4 {
		t.Fatalf("anonymous nodes unified: %d vertices", len(g2.Vertices))
	}
}

func TestQueryGraphPropMapsBecomePredicates(t *testing.T) {
	g := buildQG(t, `MATCH (p:Person {name: 'Alice'}) RETURN *`, nil)
	p, _ := g.VertexByVar("p")
	if len(p.Predicates) != 1 {
		t.Fatalf("predicates: %d", len(p.Predicates))
	}
	ok := EvalElement(p.Predicates, "p", epgm.Properties{}.Set("name", epgm.PVString("Alice")))
	if !ok {
		t.Fatal("prop map predicate should match Alice")
	}
	if EvalElement(p.Predicates, "p", epgm.Properties{}.Set("name", epgm.PVString("Bob"))) {
		t.Fatal("prop map predicate should reject Bob")
	}
}

func TestQueryGraphLabelIntersection(t *testing.T) {
	g := buildQG(t, `MATCH (m:Comment|Post)-[:replyOf]->(p), (m:Post) RETURN *`, nil)
	m, _ := g.VertexByVar("m")
	if len(m.Labels) != 1 || m.Labels[0] != "Post" {
		t.Fatalf("labels: %v", m.Labels)
	}
	if _, err := Parse(`MATCH (m:Comment), (m:Post) RETURN *`); err != nil {
		t.Fatal(err)
	}
	q := mustParse(t, `MATCH (m:Comment)-->(x), (m:Post) RETURN *`)
	if _, err := BuildQueryGraph(q, nil); err == nil {
		t.Fatal("contradictory labels should error")
	}
}

func TestQueryGraphParams(t *testing.T) {
	params := map[string]epgm.PropertyValue{"firstName": epgm.PVString("Eve")}
	g := buildQG(t, `MATCH (p:Person) WHERE p.firstName = $firstName RETURN *`, params)
	p, _ := g.VertexByVar("p")
	if !EvalElement(p.Predicates, "p", epgm.Properties{}.Set("firstName", epgm.PVString("Eve"))) {
		t.Fatal("param predicate should match Eve")
	}
	q := mustParse(t, `MATCH (p) WHERE p.x = $missing RETURN *`)
	if _, err := BuildQueryGraph(q, nil); err == nil {
		t.Fatal("missing param should error")
	}
}

func TestQueryGraphValidatesVariables(t *testing.T) {
	q := mustParse(t, `MATCH (a) WHERE b.x = 1 RETURN *`)
	if _, err := BuildQueryGraph(q, nil); err == nil {
		t.Fatal("undeclared WHERE variable should error")
	}
	q2 := mustParse(t, `MATCH (a) RETURN b.x`)
	if _, err := BuildQueryGraph(q2, nil); err == nil {
		t.Fatal("undeclared RETURN variable should error")
	}
}

func TestQueryGraphRejectsDuplicateRelVar(t *testing.T) {
	q := mustParse(t, `MATCH (a)-[e:knows]->(b), (b)-[e:knows]->(c) RETURN *`)
	if _, err := BuildQueryGraph(q, nil); err == nil {
		t.Fatal("duplicate relationship variable should error")
	}
}

func TestQueryGraphRejectsVertexEdgeClash(t *testing.T) {
	q := mustParse(t, `MATCH (x)-[x:knows]->(b) RETURN *`)
	if _, err := BuildQueryGraph(q, nil); err == nil {
		t.Fatal("variable used as vertex and edge should error")
	}
}

func TestQueryGraphReturnProjections(t *testing.T) {
	g := buildQG(t, `MATCH (p:Person)-[s:studyAt]->(u) WHERE s.classYear > 2014 AND p.age < u.age RETURN p.name, u.name, p.age`, nil)
	// The result alone reads name; the cross-element predicate reads age,
	// which the result reads as well.
	p, _ := g.VertexByVar("p")
	if !slices.Equal(p.Projection, []string{"age"}) || !slices.Equal(p.Returned, []string{"name"}) ||
		!slices.Equal(p.Keys(), []string{"age", "name"}) {
		t.Fatalf("p projection: %v, returned: %v", p.Projection, p.Returned)
	}
	u, _ := g.VertexByVar("u")
	if !slices.Equal(u.Projection, []string{"age"}) || !slices.Equal(u.Returned, []string{"name"}) {
		t.Fatalf("u projection: %v, returned: %v", u.Projection, u.Returned)
	}
	// s.classYear is element-centric: evaluated at the leaf, no projection
	// needed downstream.
	s, _ := g.EdgeByVar("s")
	if len(s.Projection) != 0 {
		t.Fatalf("s projection: %v", s.Projection)
	}
}

func TestQueryGraphUndirected(t *testing.T) {
	g := buildQG(t, `MATCH (a)-[:knows]-(b) RETURN *`, nil)
	if !g.Edges[0].Undirected {
		t.Fatal("undirected flag lost")
	}
}

func TestEvalPredicateLogic(t *testing.T) {
	props := epgm.Properties{}.Set("x", epgm.PVInt(5)).Set("s", epgm.PVString("a"))
	lookup := func(v, k string) epgm.PropertyValue { return props.Get(k) }
	parse := func(src string) Expr {
		q := mustParse(t, "MATCH (n) WHERE "+src+" RETURN *")
		return q.Where
	}
	cases := []struct {
		src  string
		want bool
	}{
		{"n.x = 5", true},
		{"n.x = 6", false},
		{"n.x <> 6", true},
		{"n.x < 6 AND n.x > 4", true},
		{"n.x < 5 OR n.x >= 5", true},
		{"NOT n.x = 6", true},
		{"n.x = 5 XOR n.s = 'a'", false},
		{"n.x = 5 XOR n.s = 'b'", true},
		{"n.missing = 5", false},
		{"n.missing <> 5", false}, // NULL <> x is not true
		{"NOT n.missing = 5", true},
		{"n.s < 'b'", true},
		{"n.s = 'a' AND (n.x = 1 OR n.x = 5)", true},
	}
	for _, c := range cases {
		if got := EvalPredicate(parse(c.src), lookup); got != c.want {
			t.Errorf("%s: got %v want %v", c.src, got, c.want)
		}
	}
}

func TestMatchesLabel(t *testing.T) {
	if !MatchesLabel("Post", nil) {
		t.Fatal("empty alternation should match")
	}
	if !MatchesLabel("Post", []string{"Comment", "Post"}) {
		t.Fatal("alternation member")
	}
	if MatchesLabel("Person", []string{"Comment", "Post"}) {
		t.Fatal("non-member")
	}
}
