package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"gradoop/internal/baseline"
	"gradoop/internal/cypher"
	"gradoop/internal/dataflow"
	"gradoop/internal/embedding"
	"gradoop/internal/epgm"
	"gradoop/internal/operators"
	"gradoop/internal/planner"
	"gradoop/internal/trace"
)

// figure1 builds a graph like the paper's Figure 1: persons, a university,
// a city, knows/studyAt/isLocatedIn edges.
func figure1(workers int) *epgm.LogicalGraph {
	env := dataflow.NewEnv(dataflow.DefaultConfig(workers))
	person := func(name, gender string) epgm.Vertex {
		return epgm.Vertex{ID: epgm.NewID(), Label: "Person", Properties: epgm.Properties{}.
			Set("name", epgm.PVString(name)).Set("gender", epgm.PVString(gender))}
	}
	alice := person("Alice", "female")
	bob := person("Bob", "male")
	eve := person("Eve", "female")
	carol := person("Carol", "female")
	uni := epgm.Vertex{ID: epgm.NewID(), Label: "University",
		Properties: epgm.Properties{}.Set("name", epgm.PVString("Uni Leipzig"))}
	city := epgm.Vertex{ID: epgm.NewID(), Label: "City",
		Properties: epgm.Properties{}.Set("name", epgm.PVString("Leipzig"))}
	e := func(label string, s, t epgm.Vertex, props epgm.Properties) epgm.Edge {
		return epgm.Edge{ID: epgm.NewID(), Label: label, Source: s.ID, Target: t.ID, Properties: props}
	}
	return epgm.GraphFromSlices(env, "Community",
		[]epgm.Vertex{alice, bob, eve, carol, uni, city},
		[]epgm.Edge{
			e("knows", alice, bob, nil),
			e("knows", bob, alice, nil),
			e("knows", bob, eve, nil),
			e("knows", eve, carol, nil),
			e("knows", carol, alice, nil),
			e("studyAt", alice, uni, epgm.Properties{}.Set("classYear", epgm.PVInt(2015))),
			e("studyAt", bob, uni, epgm.Properties{}.Set("classYear", epgm.PVInt(2014))),
			e("studyAt", eve, uni, epgm.Properties{}.Set("classYear", epgm.PVInt(2016))),
			e("isLocatedIn", uni, city, nil),
		})
}

func run(t *testing.T, g *epgm.LogicalGraph, query string, cfg Config) *Result {
	t.Helper()
	res, err := Execute(g, query, cfg)
	if err != nil {
		t.Fatalf("Execute(%q): %v", query, err)
	}
	return res
}

// compareWithReference executes the query on the engine and on the
// brute-force oracle and requires identical binding multisets.
func compareWithReference(t *testing.T, g *epgm.LogicalGraph, query string, cfg Config) int {
	t.Helper()
	res := run(t, g, query, cfg)
	wantKeys := referenceKeys(g, res.QueryGraph, operators.Morphism{Vertex: cfg.Vertex, Edge: cfg.Edge})
	gotKeys := resultKeys(res)
	if len(gotKeys) != len(wantKeys) {
		t.Fatalf("query %q: engine found %d matches, reference %d\nplan:\n%s",
			query, len(gotKeys), len(wantKeys), res.Explain())
	}
	for i := range wantKeys {
		if gotKeys[i] != wantKeys[i] {
			t.Fatalf("query %q: binding mismatch at %d:\n got %s\nwant %s", query, i, gotKeys[i], wantKeys[i])
		}
	}
	return len(wantKeys)
}

// bindingVars lists a query graph's variables by the kind of thing they bind.
func bindingVars(qg *cypher.QueryGraph) (vertexVars, edgeVars, pathVars []string) {
	for _, qv := range qg.Vertices {
		vertexVars = append(vertexVars, qv.Var)
	}
	for _, qe := range qg.Edges {
		if qe.IsVarLength() {
			pathVars = append(pathVars, qe.Var)
		} else {
			edgeVars = append(edgeVars, qe.Var)
		}
	}
	return vertexVars, edgeVars, pathVars
}

// referenceKeys is the bag of matches the brute-force oracle finds, one key
// per binding, sorted.
func referenceKeys(g *epgm.LogicalGraph, qg *cypher.QueryGraph, morph operators.Morphism) []string {
	vertexVars, edgeVars, pathVars := bindingVars(qg)
	want := baseline.NewReference(g).Match(qg, morph)
	keys := make([]string, len(want))
	for i, b := range want {
		keys[i] = b.Key(vertexVars, edgeVars, pathVars)
	}
	sort.Strings(keys)
	return keys
}

// resultKeys is the bag of matches an execution found, in referenceKeys' form.
func resultKeys(res *Result) []string {
	vertexVars, edgeVars, pathVars := bindingVars(res.QueryGraph)
	meta := res.Meta
	var keys []string
	for _, e := range res.Embeddings.Collect() {
		b := baseline.Binding{Vertices: map[string]epgm.ID{}, Edges: map[string]epgm.ID{}, Paths: map[string][]epgm.ID{}}
		for c := 0; c < meta.Columns(); c++ {
			switch meta.Kind(c) {
			case embedding.VertexEntry:
				b.Vertices[meta.Var(c)] = e.ID(c)
			case embedding.EdgeEntry:
				b.Edges[meta.Var(c)] = e.ID(c)
			case embedding.PathEntry:
				b.Paths[meta.Var(c)] = e.Path(c)
			}
		}
		keys = append(keys, b.Key(vertexVars, edgeVars, pathVars))
	}
	sort.Strings(keys)
	return keys
}

func TestSimpleEdgePattern(t *testing.T) {
	g := figure1(4)
	n := compareWithReference(t, g, `MATCH (a:Person)-[:knows]->(b:Person) RETURN *`, Config{})
	if n != 5 {
		t.Fatalf("knows matches=%d want 5", n)
	}
}

func TestVertexOnlyPattern(t *testing.T) {
	g := figure1(2)
	n := compareWithReference(t, g, `MATCH (p:Person) RETURN *`, Config{})
	if n != 4 {
		t.Fatalf("persons=%d", n)
	}
	n = compareWithReference(t, g, `MATCH (p:Person) WHERE p.gender = 'female' RETURN *`, Config{})
	if n != 3 {
		t.Fatalf("females=%d", n)
	}
}

func TestPaperStudyAtQuery(t *testing.T) {
	g := figure1(4)
	// Table 2a: persons with studyAt classYear > 2014.
	res := run(t, g, `MATCH (p1:Person)-[s:studyAt]->(u:University)
		WHERE s.classYear > 2014 RETURN p1.name, u.name`, Config{})
	rows := res.Rows()
	if len(rows) != 2 {
		t.Fatalf("rows=%d want 2 (Alice, Eve)\n%s", len(rows), res.Explain())
	}
	names := map[string]bool{}
	for _, r := range rows {
		if len(r.Columns) != 2 || r.Columns[0] != "p1.name" {
			t.Fatalf("columns: %v", r.Columns)
		}
		names[r.Values[0].Str()] = true
		if r.Values[1].Str() != "Uni Leipzig" {
			t.Fatalf("university: %v", r.Values[1])
		}
	}
	if !names["Alice"] || !names["Eve"] {
		t.Fatalf("names: %v", names)
	}
}

func TestPaperFlagshipQuery(t *testing.T) {
	g := figure1(4)
	query := `MATCH (p1:Person)-[s:studyAt]->(u:University),
	                (p2:Person)-[:studyAt]->(u),
	                (p1)-[e:knows*1..3]->(p2)
	          WHERE p1.gender <> p2.gender
	            AND u.name = 'Uni Leipzig'
	            AND s.classYear > 2014
	          RETURN *`
	for _, morph := range []Config{
		{Vertex: operators.Homomorphism, Edge: operators.Homomorphism},
		{Vertex: operators.Homomorphism, Edge: operators.Isomorphism},
		{Vertex: operators.Isomorphism, Edge: operators.Isomorphism},
	} {
		compareWithReference(t, g, query, morph)
	}
}

func TestVarLengthPathBounds(t *testing.T) {
	g := figure1(3)
	for _, q := range []string{
		`MATCH (a:Person)-[e:knows*1..1]->(b) RETURN *`,
		`MATCH (a:Person)-[e:knows*1..2]->(b) RETURN *`,
		`MATCH (a:Person)-[e:knows*2..3]->(b) RETURN *`,
		`MATCH (a:Person)-[e:knows*0..2]->(b) RETURN *`,
	} {
		for _, cfg := range []Config{
			{},
			{Vertex: operators.Isomorphism, Edge: operators.Isomorphism},
			{Vertex: operators.Homomorphism, Edge: operators.Isomorphism},
		} {
			compareWithReference(t, g, q, cfg)
		}
	}
}

func TestVarLengthZeroHops(t *testing.T) {
	g := figure1(2)
	// With *0..0 every Person matches itself.
	n := compareWithReference(t, g, `MATCH (a:Person)-[e:knows*0..0]->(b) RETURN *`, Config{})
	if n != 4 {
		t.Fatalf("zero-hop matches=%d want 4", n)
	}
}

func TestVarLengthCycleClosing(t *testing.T) {
	g := figure1(3)
	// Both endpoints bound by other pattern parts: the expand must check the
	// target binding rather than create a column.
	q := `MATCH (a:Person)-[:knows]->(b:Person), (b)-[e:knows*1..3]->(a) RETURN *`
	for _, cfg := range []Config{
		{},
		{Vertex: operators.Isomorphism, Edge: operators.Isomorphism},
	} {
		compareWithReference(t, g, q, cfg)
	}
}

func TestIncomingAndAlternation(t *testing.T) {
	g := figure1(3)
	compareWithReference(t, g, `MATCH (u:University)<-[s:studyAt]-(p:Person) RETURN *`, Config{})
	compareWithReference(t, g, `MATCH (x:University|City) RETURN *`, Config{})
	compareWithReference(t, g, `MATCH (p:Person)-[:studyAt|isLocatedIn]->(x) RETURN *`, Config{})
}

func TestUndirectedPattern(t *testing.T) {
	g := figure1(3)
	compareWithReference(t, g, `MATCH (a:Person)-[e:knows]-(b:Person) RETURN *`, Config{})
}

func TestTrianglePattern(t *testing.T) {
	g := figure1(4)
	// Query 5 shape: directed triangles.
	q := `MATCH (p1:Person)-[:knows]->(p2:Person),
	            (p2)-[:knows]->(p3:Person),
	            (p1)-[:knows]->(p3)
	      RETURN *`
	compareWithReference(t, g, q, Config{})
	compareWithReference(t, g, q, Config{Vertex: operators.Isomorphism, Edge: operators.Isomorphism})
}

func TestHomomorphismVsIsomorphismDiffer(t *testing.T) {
	g := figure1(2)
	// (a)-[:knows]->(b)-[:knows]->(c): homomorphism allows a=c
	// (Alice->Bob->Alice), isomorphism forbids it.
	q := `MATCH (a:Person)-[:knows]->(b:Person)-[:knows]->(c:Person) RETURN *`
	homo := compareWithReference(t, g, q, Config{})
	iso := compareWithReference(t, g, q, Config{Vertex: operators.Isomorphism, Edge: operators.Isomorphism})
	if homo <= iso {
		t.Fatalf("expected homo (%d) > iso (%d)", homo, iso)
	}
}

func TestAnonymousElements(t *testing.T) {
	g := figure1(2)
	compareWithReference(t, g, `MATCH (:Person)-[:studyAt]->(u) RETURN *`, Config{})
	compareWithReference(t, g, `MATCH (p:Person)-->(x) RETURN *`, Config{})
}

func TestDisconnectedPatternCartesian(t *testing.T) {
	g := figure1(3)
	n := compareWithReference(t, g, `MATCH (u:University), (c:City) RETURN *`, Config{})
	if n != 1 {
		t.Fatalf("cartesian matches=%d want 1", n)
	}
	compareWithReference(t, g, `MATCH (a:Person)-[:knows]->(b), (c:City) RETURN *`, Config{})
}

func TestParamsAndPropertyMap(t *testing.T) {
	g := figure1(2)
	cfg := Config{Params: map[string]epgm.PropertyValue{"n": epgm.PVString("Alice")}}
	res := run(t, g, `MATCH (p:Person {name: $n})-[:knows]->(q) RETURN q.name`, cfg)
	rows := res.Rows()
	if len(rows) != 1 || rows[0].Values[0].Str() != "Bob" {
		t.Fatalf("rows: %v", rows)
	}
}

func TestIndexedAccessSameResults(t *testing.T) {
	g := figure1(3)
	idx := epgm.BuildIndex(g)
	q := `MATCH (p1:Person)-[:knows]->(p2:Person)-[:studyAt]->(u:University) RETURN *`
	plain := run(t, g, q, Config{})
	indexed := run(t, g, q, Config{Access: planner.IndexedAccess{Index: idx}})
	if plain.Count() != indexed.Count() {
		t.Fatalf("plain=%d indexed=%d", plain.Count(), indexed.Count())
	}
}

// TestSelectiveSideIsBroadcast: how a join runs is a fact of its inputs. Over
// an index, Alice - one row, counted - is broadcast into the scan of the five
// knows edges, and what comes of it into the scan of the four persons; over
// the plain graph, which knows no sizes but its own partitions', the same
// query repartitions as it always did. Both find the reference's matches.
func TestSelectiveSideIsBroadcast(t *testing.T) {
	g := figure1(1)
	q := `MATCH (p1:Person)-[:knows]->(p2:Person) WHERE p1.name = 'Alice' RETURN *`
	col := trace.NewCollector()
	compareWithReference(t, g, q, Config{Access: planner.IndexedAccess{Index: epgm.BuildIndex(g)}, Trace: col})
	indexed := run(t, g, q, Config{Access: planner.IndexedAccess{Index: epgm.BuildIndex(g)}, Trace: col}).AnalyzedPlan()
	for _, want := range []string{"[broadcast n=1 act=1 ", "[probed in place: scanned=5 act=1 ", "[probed in place: scanned=4 act=1 "} {
		if !strings.Contains(indexed, want) {
			t.Errorf("indexed plan lacks %q:\n%s", want, indexed)
		}
	}
	plain := run(t, g, q, Config{Trace: trace.NewCollector()}).AnalyzedPlan()
	for _, not := range []string{"broadcast", "repartition", "probed"} {
		if strings.Contains(plain, not) {
			t.Errorf("plain plan says %q:\n%s", not, plain)
		}
	}
}

func TestGraphCollectionResult(t *testing.T) {
	g := figure1(2)
	res := run(t, g, `MATCH (p:Person)-[s:studyAt]->(u:University) RETURN *`, Config{})
	coll := res.GraphCollection()
	if coll.GraphCount() != 3 {
		t.Fatalf("graphs=%d want 3", coll.GraphCount())
	}
	heads := coll.Heads.Collect()
	for _, h := range heads {
		// Variable bindings stored as head properties.
		if h.Properties.Get("p").IsNull() || h.Properties.Get("u").IsNull() || h.Properties.Get("s").IsNull() {
			t.Fatalf("head missing bindings: %v", h.Properties)
		}
	}
	// Each result graph contains exactly its two vertices and one edge.
	lg, ok := coll.Graph(heads[0].ID)
	if !ok {
		t.Fatal("graph lookup failed")
	}
	if lg.VertexCount() != 2 || lg.EdgeCount() != 1 {
		t.Fatalf("result graph: %d vertices %d edges", lg.VertexCount(), lg.EdgeCount())
	}
}

func TestRowsReturnStarSkipsAnonymous(t *testing.T) {
	g := figure1(2)
	res := run(t, g, `MATCH (p:Person)-[:studyAt]->(u) RETURN *`, Config{})
	rows := res.Rows()
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, c := range rows[0].Columns {
		if c != "p" && c != "u" {
			t.Fatalf("unexpected column %q", c)
		}
	}
}

func TestWorkerCountsAgree(t *testing.T) {
	q := `MATCH (p1:Person)-[e:knows*1..2]->(p2:Person)-[:studyAt]->(u) RETURN *`
	baselineCount := int64(-1)
	for _, w := range []int{1, 2, 4, 8} {
		g := figure1(w)
		res := run(t, g, q, Config{})
		if baselineCount == -1 {
			baselineCount = res.Count()
		} else if res.Count() != baselineCount {
			t.Fatalf("workers=%d count=%d, want %d", w, res.Count(), baselineCount)
		}
	}
}

// randomGraph builds a random labeled property graph for oracle fuzzing.
func randomGraph(rng *rand.Rand, workers, nv, ne int) *epgm.LogicalGraph {
	env := dataflow.NewEnv(dataflow.DefaultConfig(workers))
	labels := []string{"A", "B", "C"}
	colors := []string{"red", "green", "blue"}
	vertices := make([]epgm.Vertex, nv)
	for i := range vertices {
		vertices[i] = epgm.Vertex{
			ID:    epgm.NewID(),
			Label: labels[rng.Intn(len(labels))],
			Properties: epgm.Properties{}.
				Set("color", epgm.PVString(colors[rng.Intn(len(colors))])).
				Set("rank", epgm.PVInt(int64(rng.Intn(5)))),
		}
	}
	etypes := []string{"x", "y"}
	edges := make([]epgm.Edge, ne)
	for i := range edges {
		edges[i] = epgm.Edge{
			ID:     epgm.NewID(),
			Label:  etypes[rng.Intn(len(etypes))],
			Source: vertices[rng.Intn(nv)].ID,
			Target: vertices[rng.Intn(nv)].ID,
			Properties: epgm.Properties{}.
				Set("w", epgm.PVInt(int64(rng.Intn(3)))),
		}
	}
	return epgm.GraphFromSlices(env, "Random", vertices, edges)
}

func TestFuzzAgainstReference(t *testing.T) {
	queries := []string{
		`MATCH (a:A)-[e:x]->(b) RETURN *`,
		`MATCH (a)-[e:x]->(b)-[f:y]->(c) RETURN *`,
		`MATCH (a:A)-[e]->(b:B) WHERE a.color = b.color RETURN *`,
		`MATCH (a)-[e]->(a) RETURN *`,
		`MATCH (a:A)-[e:x*1..2]->(b) RETURN *`,
		`MATCH (a)-[e:x*0..2]->(b:B) RETURN *`,
		`MATCH (a)-[e1:x]->(b), (b)-[e2]->(c), (a)-[e3]->(c) RETURN *`,
		`MATCH (a)-[e]->(b) WHERE a.rank < b.rank AND e.w = 1 RETURN *`,
		`MATCH (a)-[e]-(b:B) RETURN *`,
		`MATCH (a:A), (b:B) WHERE a.color = b.color RETURN *`,
		`MATCH (a)-[e:y*1..3]->(b) WHERE a.rank >= 3 RETURN *`,
	}
	morphs := []Config{
		{Vertex: operators.Homomorphism, Edge: operators.Homomorphism},
		{Vertex: operators.Homomorphism, Edge: operators.Isomorphism},
		{Vertex: operators.Isomorphism, Edge: operators.Isomorphism},
		{Vertex: operators.Isomorphism, Edge: operators.Homomorphism},
	}
	for seed := 0; seed < 3; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		g := randomGraph(rng, 1+seed, 12, 20)
		for _, q := range queries {
			for _, cfg := range morphs {
				t.Run(fmt.Sprintf("seed%d/%s/%s%s", seed, q[:20], cfg.Vertex, cfg.Edge), func(t *testing.T) {
					compareWithReference(t, g, q, cfg)
				})
			}
		}
	}
}

func TestExplainListsOperators(t *testing.T) {
	g := figure1(2)
	res := run(t, g, `MATCH (p1:Person)-[e:knows*1..3]->(p2:Person) WHERE p1.gender <> p2.gender RETURN *`, Config{})
	plan := res.Explain()
	for _, frag := range []string{"ExpandEmbeddings", "FilterAndProjectVertices", "rows"} {
		if !contains(plan, frag) {
			t.Fatalf("explain missing %q:\n%s", frag, plan)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestExecuteErrors(t *testing.T) {
	g := figure1(1)
	if _, err := Execute(g, `MATCH (a WHERE`, Config{}); err == nil {
		t.Fatal("syntax error not reported")
	}
	if _, err := Execute(g, `MATCH (a) WHERE b.x = 1 RETURN *`, Config{}); err == nil {
		t.Fatal("semantic error not reported")
	}
}

// TestSelectiveBitIsSetAtPlanAndRebind: every operator's Selective bit, which
// its constructor sets from its inputs', is what a walk of its subtree finds -
// in the template plan and in the plan a request is rebound to. (A join asks
// it of its inputs on every request; walking there instead cost a predicate-
// free four-join query 37 objects.)
func TestSelectiveBitIsSetAtPlanAndRebind(t *testing.T) {
	var below func(op operators.Operator) bool
	below = func(op operators.Operator) bool {
		switch o := op.(type) {
		case *operators.FilterAndProjectVertices:
			return len(o.Vertex.Predicates) > 0
		case *operators.FilterAndProjectEdges:
			return len(o.Edge.Predicates) > 0
		case *operators.FilterEmbeddings:
			return true
		case *operators.ExpandEmbeddings:
			if len(o.Edge.Predicates) > 0 {
				return true
			}
		}
		for _, c := range op.Children() {
			if below(c) {
				return true
			}
		}
		return false
	}
	g := figure1(2)
	cfg := Config{Params: map[string]epgm.PropertyValue{"n": epgm.PVString("Alice")}}
	selective := 0
	for _, q := range []string{
		`MATCH (p:Person)-[:knows]->(q:Person), (q)-[:studyAt]->(u:University) RETURN *`,
		`MATCH (p:Person {name: $n})-[:knows]->(q:Person), (q)-[:studyAt]->(u:University) RETURN *`,
		`MATCH (p:Person)-[:knows]->(q:Person), (q)-[s:studyAt]->(u:University) WHERE s.classYear > 2014 RETURN *`,
		`MATCH (p:Person)-[:knows]->(q:Person), (p)-[:knows]->(r:Person) WHERE q.gender <> r.gender RETURN *`,
		`MATCH (p:Person)-[e:knows*1..2]->(q:Person), (q)-[:studyAt]->(u:University) RETURN *`,
		`MATCH (p:Person)-[:knows]->(q:Person) OPTIONAL MATCH (q)-[s:studyAt]->(u:University) WHERE s.classYear > 2014 RETURN *`,
	} {
		prep, err := Prepare(g, q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		bound, err := prep.Bind(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, plan := range []*planner.QueryPlan{prep.Plan, bound.Plan} {
			for _, n := range plan.Nodes() {
				if got, want := n.Op.Selective(), below(n.Op); got != want {
					t.Errorf("%s: %s says Selective %v, its subtree %v\n%s", q, n.Op.Description(), got, want, plan.Explain())
				} else if got {
					selective++
				}
			}
		}
	}
	if selective == 0 {
		t.Fatal("no operator of any plan is selective: the queries do not exercise the bit")
	}
}
