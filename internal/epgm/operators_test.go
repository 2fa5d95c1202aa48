package epgm

import (
	"testing"

	"gradoop/internal/dataflow"
)

// socialGraph builds the paper's Figure 1 social network: persons knowing
// each other, studying at universities, located in cities.
func socialGraph(t testing.TB, workers int) *LogicalGraph {
	t.Helper()
	return socialGraphOn(t, dataflow.NewEnv(dataflow.DefaultConfig(workers)))
}

// socialGraphOn builds the social graph on an existing environment, so
// tests can combine several graphs without tripping the engine's
// cross-environment guard (dataflow.ErrEnvMismatch).
func socialGraphOn(t testing.TB, env *dataflow.Env) *LogicalGraph {
	t.Helper()
	person := func(name, gender string, yob int64) Vertex {
		return Vertex{ID: NewID(), Label: "Person", Properties: Properties{}.
			Set("name", PVString(name)).Set("gender", PVString(gender)).Set("yob", PVInt(yob))}
	}
	alice := person("Alice", "female", 1984)
	bob := person("Bob", "male", 1985)
	eve := person("Eve", "female", 1984)
	carol := person("Carol", "female", 1990)
	uni := Vertex{ID: NewID(), Label: "University", Properties: Properties{}.Set("name", PVString("Uni Leipzig"))}
	city := Vertex{ID: NewID(), Label: "City", Properties: Properties{}.Set("name", PVString("Leipzig"))}
	edge := func(label string, s, t Vertex, props Properties) Edge {
		return Edge{ID: NewID(), Label: label, Source: s.ID, Target: t.ID, Properties: props}
	}
	vertices := []Vertex{alice, bob, eve, carol, uni, city}
	edges := []Edge{
		edge("knows", alice, bob, nil),
		edge("knows", bob, alice, nil),
		edge("knows", bob, eve, nil),
		edge("knows", eve, carol, nil),
		edge("studyAt", alice, uni, Properties{}.Set("classYear", PVInt(2015))),
		edge("studyAt", bob, uni, Properties{}.Set("classYear", PVInt(2014))),
		edge("studyAt", eve, uni, Properties{}.Set("classYear", PVInt(2016))),
		edge("isLocatedIn", uni, city, nil),
	}
	return GraphFromSlices(env, "Community", vertices, edges)
}

func TestGraphFromSlicesStampsMembership(t *testing.T) {
	g := socialGraph(t, 4)
	for _, v := range g.Vertices.Collect() {
		if !v.GraphIDs.Contains(g.Head.ID) {
			t.Fatalf("vertex %d not member of graph", v.ID)
		}
	}
	if g.VertexCount() != 6 || g.EdgeCount() != 8 {
		t.Fatalf("counts: %d vertices, %d edges", g.VertexCount(), g.EdgeCount())
	}
}

func TestSubgraph(t *testing.T) {
	g := socialGraph(t, 3)
	sg := g.Subgraph(
		func(v Vertex) bool { return v.Label == "Person" },
		func(e Edge) bool { return e.Label == "knows" },
	)
	if got := sg.VertexCount(); got != 4 {
		t.Fatalf("vertices=%d want 4", got)
	}
	if got := sg.EdgeCount(); got != 4 {
		t.Fatalf("edges=%d want 4", got)
	}
}

func TestSubgraphRemovesDanglingEdges(t *testing.T) {
	g := socialGraph(t, 2)
	// Keep only female persons; knows edges to Bob must disappear even
	// though the edge predicate allows everything.
	sg := g.Subgraph(func(v Vertex) bool {
		return v.Label == "Person" && v.Properties.Get("gender").Str() == "female"
	}, nil)
	if got := sg.VertexCount(); got != 3 {
		t.Fatalf("vertices=%d want 3", got)
	}
	// Only eve->carol survives among females.
	if got := sg.EdgeCount(); got != 1 {
		t.Fatalf("edges=%d want 1", got)
	}
}

func TestTransform(t *testing.T) {
	g := socialGraph(t, 2)
	tg := g.Transform(nil, func(v Vertex) Vertex {
		v.Properties = v.Properties.Clone().Set("seen", PVBool(true))
		return v
	}, nil)
	for _, v := range tg.Vertices.Collect() {
		if !v.Properties.Get("seen").Bool() {
			t.Fatalf("vertex %d not transformed", v.ID)
		}
	}
	// Original untouched.
	for _, v := range g.Vertices.Collect() {
		if v.Properties.Has("seen") {
			t.Fatal("transform mutated source graph")
		}
	}
}

func TestAggregate(t *testing.T) {
	g := socialGraph(t, 2)
	ag := g.Aggregate(VertexCountAgg(), EdgeCountAgg(), SumVertexPropertyAgg("yob"),
		MinVertexPropertyAgg("yob"), MaxVertexPropertyAgg("yob"))
	p := ag.Head.Properties
	if p.Get("vertexCount").Int() != 6 || p.Get("edgeCount").Int() != 8 {
		t.Fatalf("counts: %v", p)
	}
	if p.Get("sum_yob").Float() != 1984+1985+1984+1990 {
		t.Fatalf("sum_yob=%v", p.Get("sum_yob"))
	}
	if p.Get("min_yob").Float() != 1984 || p.Get("max_yob").Float() != 1990 {
		t.Fatalf("min/max: %v %v", p.Get("min_yob"), p.Get("max_yob"))
	}
}

func TestAggregateEmptyPropertyIsNull(t *testing.T) {
	g := socialGraph(t, 1)
	ag := g.Aggregate(MinVertexPropertyAgg("salary"))
	if !ag.Head.Properties.Get("min_salary").IsNull() {
		t.Fatal("aggregate over absent property should be Null")
	}
}

func TestGroupByLabel(t *testing.T) {
	g := socialGraph(t, 3)
	grouped := g.GroupBy(GroupingConfig{GroupByVertexLabel: true, GroupByEdgeLabel: true})
	vs := grouped.Vertices.Collect()
	if len(vs) != 3 { // Person, University, City
		t.Fatalf("super-vertices=%d want 3", len(vs))
	}
	counts := map[string]int64{}
	for _, v := range vs {
		counts[v.Label] = v.Properties.Get("count").Int()
	}
	if counts["Person"] != 4 || counts["University"] != 1 || counts["City"] != 1 {
		t.Fatalf("counts=%v", counts)
	}
	es := grouped.Edges.Collect()
	ecounts := map[string]int64{}
	for _, e := range es {
		ecounts[e.Label] += e.Properties.Get("count").Int()
	}
	if ecounts["knows"] != 4 || ecounts["studyAt"] != 3 || ecounts["isLocatedIn"] != 1 {
		t.Fatalf("edge counts=%v", ecounts)
	}
}

func TestGroupByProperty(t *testing.T) {
	g := socialGraph(t, 2)
	persons := g.Subgraph(func(v Vertex) bool { return v.Label == "Person" }, func(Edge) bool { return true })
	grouped := persons.GroupBy(GroupingConfig{
		GroupByVertexLabel: true,
		VertexPropertyKeys: []string{"gender"},
	})
	vs := grouped.Vertices.Collect()
	if len(vs) != 2 {
		t.Fatalf("groups=%d want 2 (female/male)", len(vs))
	}
	byGender := map[string]int64{}
	for _, v := range vs {
		byGender[v.Properties.Get("gender").Str()] = v.Properties.Get("count").Int()
	}
	if byGender["female"] != 3 || byGender["male"] != 1 {
		t.Fatalf("by gender: %v", byGender)
	}
}

func TestCombinationOverlapExclusion(t *testing.T) {
	g := socialGraph(t, 2)
	persons := g.Subgraph(func(v Vertex) bool { return v.Label == "Person" }, nil)
	females := g.Subgraph(func(v Vertex) bool {
		return v.Label == "Person" && v.Properties.Get("gender").Str() == "female"
	}, nil)

	comb := persons.Combination(females)
	if got := comb.VertexCount(); got != 4 {
		t.Fatalf("combination vertices=%d want 4", got)
	}
	over := persons.Overlap(females)
	if got := over.VertexCount(); got != 3 {
		t.Fatalf("overlap vertices=%d want 3", got)
	}
	excl := persons.Exclusion(females)
	if got := excl.VertexCount(); got != 1 {
		t.Fatalf("exclusion vertices=%d want 1", got)
	}
	for _, v := range excl.Vertices.Collect() {
		if v.Properties.Get("name").Str() != "Bob" {
			t.Fatalf("exclusion kept %v", v)
		}
	}
}

func TestCollectionSelectAndSetOps(t *testing.T) {
	g := socialGraph(t, 2)
	env := g.Env()
	g2 := socialGraphOn(t, env)
	c1 := g.AsCollection()
	c2 := NewGraphCollection(env,
		dataflow.FromSlice(env, []GraphHead{g.Head, g2.Head}),
		dataflow.Union(g.Vertices, g2.Vertices),
		dataflow.Union(g.Edges, g2.Edges))

	if got := c2.GraphCount(); got != 2 {
		t.Fatalf("graphs=%d", got)
	}
	sel := c2.Select(func(h GraphHead) bool { return h.ID == g.Head.ID })
	if got := sel.GraphCount(); got != 1 {
		t.Fatalf("select graphs=%d", got)
	}
	if got := sel.Vertices.Count(); got != 6 {
		t.Fatalf("select vertices=%d want 6", got)
	}
	inter := c2.Intersect(c1)
	if got := inter.GraphCount(); got != 1 {
		t.Fatalf("intersect graphs=%d", got)
	}
	diff := c2.Difference(c1)
	if got := diff.GraphCount(); got != 1 {
		t.Fatalf("difference graphs=%d", got)
	}
	uni := c1.Union(c2)
	if got := uni.GraphCount(); got != 2 {
		t.Fatalf("union graphs=%d", got)
	}
}

func TestCollectionGraphExtraction(t *testing.T) {
	g := socialGraph(t, 2)
	c := g.AsCollection()
	got, ok := c.Graph(g.Head.ID)
	if !ok {
		t.Fatal("graph not found")
	}
	if got.VertexCount() != 6 {
		t.Fatalf("vertices=%d", got.VertexCount())
	}
	if _, ok := c.Graph(ID(999999)); ok {
		t.Fatal("phantom graph")
	}
}

func TestIndexedLogicalGraph(t *testing.T) {
	g := socialGraph(t, 3)
	idx := BuildIndex(g)
	if got := idx.Vertices("Person").Union().Count(); got != 4 {
		t.Fatalf("Person vertices=%d want 4", got)
	}
	if got := idx.Edges("knows").Union().Count(); got != 4 {
		t.Fatalf("knows edges=%d want 4", got)
	}
	if got := idx.Vertices("Comment", "Post").Union().Count(); got != 0 {
		t.Fatalf("unknown labels should be empty, got %d", got)
	}
	if got := idx.Vertices().Union().Count(); got != 6 {
		t.Fatalf("all vertices=%d want 6", got)
	}
	multi := idx.Vertices("Person", "City")
	if got := multi.Union().Count(); got != 5 || multi.Pinned != 5 || len(multi.Parts) != 2 {
		t.Fatalf("multi-label vertices=%d pinned=%d in %d parts, want 5, 5 and one part per label", got, multi.Pinned, len(multi.Parts))
	}
	labels := idx.VertexLabels()
	if len(labels) != 3 || labels[0] != "City" {
		t.Fatalf("labels=%v", labels)
	}
	flat := idx.ToLogicalGraph()
	if flat.VertexCount() != 6 || flat.EdgeCount() != 8 {
		t.Fatal("flatten mismatch")
	}
}

func TestSortedLabels(t *testing.T) {
	g := socialGraph(t, 2)
	labels := g.SortedLabels()
	want := []string{"City", "Person", "University"}
	if len(labels) != len(want) {
		t.Fatalf("labels=%v", labels)
	}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("labels=%v", labels)
		}
	}
}
