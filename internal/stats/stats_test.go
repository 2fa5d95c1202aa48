package stats

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"gradoop/internal/dataflow"
	"gradoop/internal/epgm"
	"gradoop/internal/gdl"
	"gradoop/internal/ldbc"
)

// collectByJobs is how statistics were computed before they were read off
// the store: eight dataflow jobs over the graph's datasets, every property
// value rendered by String. It is the reference Collect is held to.
func collectByJobs(g *epgm.LogicalGraph) *GraphStatistics {
	s := &GraphStatistics{
		VertexCountByLabel:       map[string]int64{},
		EdgeCountByLabel:         map[string]int64{},
		DistinctSourceIDsByLabel: map[string]int64{},
		DistinctTargetIDsByLabel: map[string]int64{},
		DistinctVertexProperties: map[string]int64{},
		DistinctEdgeProperties:   map[string]int64{},
	}

	s.VertexCount = g.VertexCount()
	s.EdgeCount = g.EdgeCount()

	for _, kv := range dataflow.CountByKey(g.Vertices, func(v epgm.Vertex) string { return v.Label }).Collect() {
		s.VertexCountByLabel[kv.Key] = kv.Value
	}
	for _, kv := range dataflow.CountByKey(g.Edges, func(e epgm.Edge) string { return e.Label }).Collect() {
		s.EdgeCountByLabel[kv.Key] = kv.Value
	}

	s.DistinctSourceIDs = dataflow.Distinct(dataflow.Map(g.Edges, func(e epgm.Edge) epgm.ID { return e.Source })).Count()
	s.DistinctTargetIDs = dataflow.Distinct(dataflow.Map(g.Edges, func(e epgm.Edge) epgm.ID { return e.Target })).Count()

	type labelID struct {
		Label string
		ID    epgm.ID
	}
	srcByLabel := dataflow.Distinct(dataflow.Map(g.Edges, func(e epgm.Edge) labelID {
		return labelID{Label: e.Label, ID: e.Source}
	}))
	for _, kv := range dataflow.CountByKey(srcByLabel, func(l labelID) string { return l.Label }).Collect() {
		s.DistinctSourceIDsByLabel[kv.Key] = kv.Value
	}
	tgtByLabel := dataflow.Distinct(dataflow.Map(g.Edges, func(e epgm.Edge) labelID {
		return labelID{Label: e.Label, ID: e.Target}
	}))
	for _, kv := range dataflow.CountByKey(tgtByLabel, func(l labelID) string { return l.Label }).Collect() {
		s.DistinctTargetIDsByLabel[kv.Key] = kv.Value
	}

	type labelKeyValue struct {
		LabelKey string
		Value    string
	}
	vertexProps := dataflow.FlatMap(g.Vertices, func(v epgm.Vertex, emit func(labelKeyValue)) {
		for _, p := range v.Properties {
			emit(labelKeyValue{LabelKey: PropKey(v.Label, p.Key), Value: p.Value.String()})
			emit(labelKeyValue{LabelKey: PropKey("", p.Key), Value: p.Value.String()})
		}
	})
	for _, kv := range dataflow.CountByKey(dataflow.Distinct(vertexProps), func(l labelKeyValue) string { return l.LabelKey }).Collect() {
		s.DistinctVertexProperties[kv.Key] = kv.Value
	}
	edgeProps := dataflow.FlatMap(g.Edges, func(e epgm.Edge, emit func(labelKeyValue)) {
		for _, p := range e.Properties {
			emit(labelKeyValue{LabelKey: PropKey(e.Label, p.Key), Value: p.Value.String()})
			emit(labelKeyValue{LabelKey: PropKey("", p.Key), Value: p.Value.String()})
		}
	})
	for _, kv := range dataflow.CountByKey(dataflow.Distinct(edgeProps), func(l labelKeyValue) string { return l.LabelKey }).Collect() {
		s.DistinctEdgeProperties[kv.Key] = kv.Value
	}
	return s
}

// sameAsJobs fails t unless Collect and the store of g give what the jobs
// give, field for field.
func sameAsJobs(t *testing.T, name string, g *epgm.LogicalGraph) {
	t.Helper()
	want := collectByJobs(g)
	for how, got := range map[string]*GraphStatistics{"Collect": Collect(g), "FromStore": FromStore(epgm.NewStore(g))} {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %s differs from the jobs:\n got %+v\nwant %+v", name, how, *got, *want)
		}
	}
}

// TestStatisticsAreTheJobs: statistics read off the store are those the
// dataflow jobs computed, on the LDBC generator's graphs and the GDL
// fixtures.
func TestStatisticsAreTheJobs(t *testing.T) {
	sfs := []float64{0.1, 1, 3}
	if testing.Short() {
		sfs = sfs[:1]
	}
	for _, sf := range sfs {
		for _, seed := range []int64{2017, 2018} {
			env := dataflow.NewEnv(dataflow.DefaultConfig(4))
			sameAsJobs(t, fmt.Sprintf("LDBC SF %g seed %d", sf, seed), ldbc.Generate(env, ldbc.Config{ScaleFactor: sf, Seed: seed}).Graph)
		}
	}
	for name, src := range gdlFixtures {
		db, err := gdl.Parse(dataflow.NewEnv(dataflow.DefaultConfig(2)), src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameAsJobs(t, name+" (whole)", db.WholeGraph())
		for _, graph := range db.GraphNames() {
			g, _ := db.Graph(graph)
			sameAsJobs(t, name+" "+graph, g)
		}
	}
}

// gdlFixtures are GDL sources of the repository's tests and examples.
var gdlFixtures = map[string]string{
	"community": `
community:Community {region: "Leipzig"} [
    (alice:Person {name: "Alice", yob: 1984, score: 1.5, active: true})
    (bob:Person {name: "Bob"})
    (alice)-[:knows {since: 2014}]->(bob)
    (bob)-[:knows]->(alice)
]
other [ (alice)-[:follows]->(carl:Person {name: "Carl"}) ]
(dave:Person)-->(alice)
`,
	"org": `
acme:Company [
    (ann:Employee {name: "Ann", level: 3})
    (ben:Employee {name: "Ben", level: 2})
    (cy:Employee  {name: "Cy",  level: 1})
    (dora:Employee {name: "Dora", level: 1})
    (core:Team {name: "Core"})
    (infra:Team {name: "Infra"})
    (ann)-[:memberOf]->(core)
    (ben)-[:memberOf]->(core)
    (cy)-[:memberOf]->(infra)
    (ann)-[:mentors]->(ben)
    (ann)-[:mentors]->(cy)
]
`,
}

// TestStatisticsEdgeCases holds the store's statistics to the jobs' where
// rendering or labels could tell them apart.
func TestStatisticsEdgeCases(t *testing.T) {
	v := func(label string, props epgm.Properties) epgm.Vertex {
		return epgm.Vertex{ID: epgm.NewID(), Label: label, Properties: props}
	}
	one := func(key string, val epgm.PropertyValue) epgm.Properties {
		return epgm.Properties{{Key: key, Value: val}}
	}
	graph := func(vs []epgm.Vertex, es []epgm.Edge) *epgm.LogicalGraph {
		return epgm.GraphFromSlices(dataflow.NewEnv(dataflow.DefaultConfig(3)), "G", vs, es)
	}

	// Unlabeled elements: PropKey("", k) is both their label's key and the
	// aggregate's, and the aggregate wins.
	un := []epgm.Vertex{v("", one("k", epgm.PVInt(1))), v("", one("k", epgm.PVInt(2))), v("A", one("k", epgm.PVInt(3)))}
	sameAsJobs(t, "unlabeled", graph(un, nil))
	if got := Collect(graph(un, nil)).DistinctVertexProperties[PropKey("", "k")]; got != 3 {
		t.Errorf("unlabeled: aggregate of k = %d, want 3", got)
	}

	// int 1, string "1" and float 1 render alike and count as one value.
	alike := []epgm.Vertex{v("A", one("k", epgm.PVInt(1))), v("A", one("k", epgm.PVString("1"))),
		v("B", one("k", epgm.PVFloat(1))), v("B", one("k", epgm.PVBool(true))), v("B", one("k", epgm.PVString("true")))}
	sameAsJobs(t, "rendered alike", graph(alike, nil))
	if got := Collect(graph(alike, nil)).DistinctVertexProperties; got[PropKey("A", "k")] != 1 || got[PropKey("", "k")] != 2 {
		t.Errorf("rendered alike: %v", got)
	}

	// An explicit Null is a value, "NULL", as is the string that reads so.
	nulls := []epgm.Vertex{v("A", one("k", epgm.Null)), v("A", one("k", epgm.PVString("NULL"))), v("A", one("k", epgm.PVInt(0)))}
	sameAsJobs(t, "null", graph(nulls, nil))

	// Duplicate (label, source) pairs, and a source under two labels.
	a, b, c := v("P", nil), v("P", nil), v("P", nil)
	e := func(label string, s, d epgm.Vertex) epgm.Edge {
		return epgm.Edge{ID: epgm.NewID(), Label: label, Source: s.ID, Target: d.ID, Properties: one("w", epgm.PVFloat(0.5))}
	}
	dup := []epgm.Edge{e("x", a, b), e("x", a, b), e("x", a, c), e("y", a, a), e("", b, c), e("", b, c)}
	sameAsJobs(t, "duplicate pairs", graph([]epgm.Vertex{a, b, c}, dup))
	if got := Collect(graph([]epgm.Vertex{a, b, c}, dup)); got.DistinctSourceIDsByLabel["x"] != 1 || got.DistinctTargetIDsByLabel["x"] != 2 || got.DistinctSourceIDs != 2 {
		t.Errorf("duplicate pairs: %+v", *got)
	}

	// Ids too sparse for a bitmap over their span are sorted instead.
	far := []epgm.Vertex{{ID: 3, Label: "P"}, {ID: 1 << 40, Label: "P"}, {ID: 1<<62 + 5, Label: "Q"}}
	sparse := []epgm.Edge{{ID: 7, Label: "x", Source: far[0].ID, Target: far[1].ID}, {ID: 8, Label: "x", Source: far[0].ID, Target: far[2].ID},
		{ID: 9, Label: "y", Source: far[2].ID, Target: far[1].ID}, {ID: 10, Label: "y", Source: far[2].ID, Target: far[1].ID}}
	sameAsJobs(t, "sparse ids", graph(far, sparse))
	if got := Collect(graph(far, sparse)); got.DistinctSourceIDs != 2 || got.DistinctTargetIDs != 2 || got.DistinctTargetIDsByLabel["x"] != 2 || got.DistinctSourceIDsByLabel["y"] != 1 {
		t.Errorf("sparse ids: %+v", *got)
	}

	// The empty graph: every table empty, none nil.
	empty := Collect(graph(nil, nil))
	sameAsJobs(t, "empty", graph(nil, nil))
	for name, m := range map[string]map[string]int64{"VertexCountByLabel": empty.VertexCountByLabel, "EdgeCountByLabel": empty.EdgeCountByLabel,
		"DistinctSourceIDsByLabel": empty.DistinctSourceIDsByLabel, "DistinctTargetIDsByLabel": empty.DistinctTargetIDsByLabel,
		"DistinctVertexProperties": empty.DistinctVertexProperties, "DistinctEdgeProperties": empty.DistinctEdgeProperties} {
		if m == nil || len(m) != 0 {
			t.Errorf("empty graph: %s = %#v, want an empty map", name, m)
		}
	}
}

func testGraph(workers int) *epgm.LogicalGraph {
	env := dataflow.NewEnv(dataflow.DefaultConfig(workers))
	var vertices []epgm.Vertex
	mk := func(label, name string) epgm.Vertex {
		v := epgm.Vertex{ID: epgm.NewID(), Label: label,
			Properties: epgm.Properties{}.Set("name", epgm.PVString(name))}
		vertices = append(vertices, v)
		return v
	}
	p1 := mk("Person", "a")
	p2 := mk("Person", "b")
	p3 := mk("Person", "a") // duplicate name value
	t1 := mk("Tag", "x")
	e := func(label string, s, d epgm.Vertex) epgm.Edge {
		return epgm.Edge{ID: epgm.NewID(), Label: label, Source: s.ID, Target: d.ID,
			Properties: epgm.Properties{}.Set("w", epgm.PVInt(1))}
	}
	edges := []epgm.Edge{
		e("knows", p1, p2), e("knows", p1, p3), e("knows", p2, p3),
		e("hasInterest", p1, t1),
	}
	return epgm.GraphFromSlices(env, "G", vertices, edges)
}

func TestCollectCounts(t *testing.T) {
	s := Collect(testGraph(3))
	if s.VertexCount != 4 || s.EdgeCount != 4 {
		t.Fatalf("counts: %d/%d", s.VertexCount, s.EdgeCount)
	}
	if s.VertexCountByLabel["Person"] != 3 || s.VertexCountByLabel["Tag"] != 1 {
		t.Fatalf("labels: %v", s.VertexCountByLabel)
	}
	if s.EdgeCountByLabel["knows"] != 3 || s.EdgeCountByLabel["hasInterest"] != 1 {
		t.Fatalf("edge labels: %v", s.EdgeCountByLabel)
	}
}

func TestCollectDistinctEndpoints(t *testing.T) {
	s := Collect(testGraph(2))
	// Sources: p1 (x3), p2 => 2 distinct overall; knows sources: p1,p2 = 2.
	if s.DistinctSourceIDs != 2 {
		t.Fatalf("distinct sources=%d", s.DistinctSourceIDs)
	}
	if s.DistinctSourceIDsByLabel["knows"] != 2 {
		t.Fatalf("knows sources=%d", s.DistinctSourceIDsByLabel["knows"])
	}
	// Targets: p2, p3, t1 = 3.
	if s.DistinctTargetIDs != 3 {
		t.Fatalf("distinct targets=%d", s.DistinctTargetIDs)
	}
	if s.DistinctTargetIDsByLabel["hasInterest"] != 1 {
		t.Fatalf("hasInterest targets=%d", s.DistinctTargetIDsByLabel["hasInterest"])
	}
}

func TestCollectDistinctProperties(t *testing.T) {
	s := Collect(testGraph(2))
	// Person.name takes values {a, b} => 2 distinct.
	if got := s.DistinctVertexPropertyValues([]string{"Person"}, "name"); got != 2 {
		t.Fatalf("Person.name distinct=%d", got)
	}
	// Across labels: {a, b, x} = 3.
	if got := s.DistinctVertexPropertyValues(nil, "name"); got != 3 {
		t.Fatalf("name distinct=%d", got)
	}
	// Unknown key falls back to the default guess.
	if got := s.DistinctVertexPropertyValues([]string{"Person"}, "zzz"); got != 10 {
		t.Fatalf("fallback=%d", got)
	}
	if got := s.DistinctEdgePropertyValues([]string{"knows"}, "w"); got != 1 {
		t.Fatalf("knows.w distinct=%d", got)
	}
}

func TestCardinalityHelpers(t *testing.T) {
	s := Collect(testGraph(2))
	if s.VertexCardinality(nil) != 4 {
		t.Fatal("all vertices")
	}
	if s.VertexCardinality([]string{"Person", "Tag"}) != 4 {
		t.Fatal("alternation")
	}
	if s.EdgeCardinality([]string{"knows"}) != 3 {
		t.Fatal("knows cardinality")
	}
	if s.EdgeCardinality([]string{"nope"}) != 0 {
		t.Fatal("unknown label")
	}
	// knows: 3 edges / 2 distinct sources = 1.5.
	if got := s.AverageOutDegree([]string{"knows"}); got != 1.5 {
		t.Fatalf("avg out degree=%f", got)
	}
	if got := s.AverageOutDegree([]string{"nope"}); got != 0 {
		t.Fatalf("unknown degree=%f", got)
	}
}

// TestAverageOutDegreeWithoutDistinctSources: statistics that count a type's
// edges but not its distinct sources - element and label counts only - take
// every vertex as a source instead of estimating the degree at 0.
func TestAverageOutDegreeWithoutDistinctSources(t *testing.T) {
	full := Collect(testGraph(2))
	flat := &GraphStatistics{VertexCount: full.VertexCount, EdgeCount: full.EdgeCount,
		VertexCountByLabel: full.VertexCountByLabel, EdgeCountByLabel: full.EdgeCountByLabel}
	for _, tc := range []struct {
		types []string
		want  float64
	}{
		{[]string{"knows"}, 3.0 / 4},          // 3 edges over 4 vertices
		{[]string{"knows", "hasInterest"}, 1}, // 4 edges over 4 vertices
		{nil, 1},                              // every type: 4 edges over 4 vertices
		{[]string{"nope"}, 0},                 // no edges, no degree
	} {
		if got := flat.AverageOutDegree(tc.types); got != tc.want {
			t.Errorf("flat degree of %v = %v, want %v", tc.types, got, tc.want)
		}
	}
	// A counted type beside an uncounted one: the sum is unknown too.
	partial := *full
	partial.DistinctSourceIDsByLabel = map[string]int64{"knows": 2}
	if got := partial.AverageOutDegree([]string{"knows", "hasInterest"}); got != 1 {
		t.Errorf("degree with hasInterest's sources missing = %v, want 1", got)
	}
	if got := full.AverageOutDegree([]string{"knows", "hasInterest"}); got != 4.0/3 {
		t.Errorf("full degree = %v, want 4/3", got)
	}
}

func TestStatsDeterministicAcrossWorkers(t *testing.T) {
	a := Collect(testGraph(1))
	b := Collect(testGraph(8))
	if a.VertexCount != b.VertexCount || a.DistinctSourceIDs != b.DistinctSourceIDs {
		t.Fatal("worker count changed statistics")
	}
	if a.DistinctVertexPropertyValues([]string{"Person"}, "name") != b.DistinctVertexPropertyValues([]string{"Person"}, "name") {
		t.Fatal("distinct props differ")
	}
}

func TestStatsString(t *testing.T) {
	s := Collect(testGraph(1))
	out := s.String()
	for _, frag := range []string{"vertices=4", "Person=3", "knows=3"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("missing %q in %q", frag, out)
		}
	}
}
