package operators

import (
	"sort"
	"testing"

	"gradoop/internal/cypher"
	"gradoop/internal/dataflow"
	"gradoop/internal/embedding"
	"gradoop/internal/epgm"
)

func env() *dataflow.Env { return dataflow.NewEnv(dataflow.DefaultConfig(3)) }

// chainGraph: v1 -e1-> v2 -e2-> v3 -e3-> v1 (a directed triangle), labels
// Person, knows; v1 has name=x.
func chainGraph(e *dataflow.Env) (*dataflow.Dataset[epgm.Vertex], *dataflow.Dataset[epgm.Edge], []epgm.ID) {
	v1 := epgm.Vertex{ID: epgm.NewID(), Label: "Person", Properties: epgm.Properties{}.Set("name", epgm.PVString("x"))}
	v2 := epgm.Vertex{ID: epgm.NewID(), Label: "Person"}
	v3 := epgm.Vertex{ID: epgm.NewID(), Label: "Tag"}
	e1 := epgm.Edge{ID: epgm.NewID(), Label: "knows", Source: v1.ID, Target: v2.ID}
	e2 := epgm.Edge{ID: epgm.NewID(), Label: "knows", Source: v2.ID, Target: v3.ID}
	e3 := epgm.Edge{ID: epgm.NewID(), Label: "likes", Source: v3.ID, Target: v1.ID}
	vs := dataflow.FromSlice(e, []epgm.Vertex{v1, v2, v3})
	es := dataflow.FromSlice(e, []epgm.Edge{e1, e2, e3})
	return vs, es, []epgm.ID{v1.ID, v2.ID, v3.ID, e1.ID, e2.ID, e3.ID}
}

func TestFilterAndProjectVertices(t *testing.T) {
	en := env()
	vs, _, ids := chainGraph(en)
	qv := &cypher.QueryVertex{Var: "p", Labels: []string{"Person"}, Projection: []string{"name"}}
	op := NewFilterAndProjectVertices(epgm.PlainScan(vs), qv)
	out := op.Evaluate().Collect()
	if len(out) != 2 {
		t.Fatalf("persons=%d", len(out))
	}
	meta := op.Meta()
	if c, ok := meta.Column("p"); !ok || c != 0 {
		t.Fatal("meta column")
	}
	if pc, ok := meta.PropColumn("p", "name"); !ok || pc != 0 {
		t.Fatal("meta prop column")
	}
	// v1 carries name=x, v2 has no name => Null in propData.
	foundX := false
	for _, e := range out {
		if e.ID(0) == ids[0] {
			if e.Prop(0).Str() != "x" {
				t.Fatalf("projected name=%v", e.Prop(0))
			}
			foundX = true
		} else if !e.Prop(0).IsNull() {
			t.Fatalf("v2 name should be Null, got %v", e.Prop(0))
		}
	}
	if !foundX {
		t.Fatal("v1 missing")
	}
}

func TestFilterAndProjectEdgesDirectedAndUndirected(t *testing.T) {
	en := env()
	_, es, _ := chainGraph(en)
	qe := &cypher.QueryEdge{Var: "e", Types: []string{"knows"}, Source: "a", Target: "b", MinHops: 1, MaxHops: 1}
	directed := NewFilterAndProjectEdges(epgm.PlainScan(es), qe).Evaluate()
	if directed.Count() != 2 {
		t.Fatalf("directed=%d", directed.Count())
	}
	und := &cypher.QueryEdge{Var: "e", Types: []string{"knows"}, Source: "a", Target: "b",
		Undirected: true, MinHops: 1, MaxHops: 1}
	undirected := NewFilterAndProjectEdges(epgm.PlainScan(es), und).Evaluate()
	if undirected.Count() != 4 {
		t.Fatalf("undirected=%d want 4 (both orientations)", undirected.Count())
	}
}

func TestFilterAndProjectEdgesLoop(t *testing.T) {
	en := env()
	v := epgm.Vertex{ID: epgm.NewID(), Label: "P"}
	loop := epgm.Edge{ID: epgm.NewID(), Label: "self", Source: v.ID, Target: v.ID}
	other := epgm.Edge{ID: epgm.NewID(), Label: "self", Source: v.ID, Target: epgm.NewID()}
	es := dataflow.FromSlice(en, []epgm.Edge{loop, other})
	qe := &cypher.QueryEdge{Var: "e", Source: "a", Target: "a", MinHops: 1, MaxHops: 1}
	op := NewFilterAndProjectEdges(epgm.PlainScan(es), qe)
	out := op.Evaluate().Collect()
	if len(out) != 1 {
		t.Fatalf("loops=%d", len(out))
	}
	if op.Meta().Columns() != 2 {
		t.Fatalf("loop meta columns=%d want 2", op.Meta().Columns())
	}
}

func TestJoinEmbeddingsPanicsWithoutSharedVars(t *testing.T) {
	en := env()
	vs, _, _ := chainGraph(en)
	a := NewFilterAndProjectVertices(epgm.PlainScan(vs), &cypher.QueryVertex{Var: "a"})
	b := NewFilterAndProjectVertices(epgm.PlainScan(vs), &cypher.QueryVertex{Var: "b"})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewJoinEmbeddings(a, b, Morphism{})
}

func TestCartesianProduct(t *testing.T) {
	en := env()
	vs, _, _ := chainGraph(en)
	a := NewFilterAndProjectVertices(epgm.PlainScan(vs), &cypher.QueryVertex{Var: "a", Labels: []string{"Person"}})
	b := NewFilterAndProjectVertices(epgm.PlainScan(vs), &cypher.QueryVertex{Var: "b", Labels: []string{"Tag"}})
	cp := NewCartesianProduct(a, b, Morphism{})
	if got := cp.Evaluate().Count(); got != 2 {
		t.Fatalf("cartesian=%d want 2", got)
	}
	// ISO with overlapping labels: (a:Person),(b:Person) forbids a=b.
	b2 := NewFilterAndProjectVertices(epgm.PlainScan(vs), &cypher.QueryVertex{Var: "b", Labels: []string{"Person"}})
	iso := NewCartesianProduct(a, b2, Morphism{Vertex: Isomorphism})
	if got := iso.Evaluate().Count(); got != 2 {
		t.Fatalf("iso cartesian=%d want 2 (4 minus diagonal)", got)
	}
}

func TestProjectEmbeddingsOperator(t *testing.T) {
	en := env()
	vs, es, _ := chainGraph(en)
	qe := &cypher.QueryEdge{Var: "e", Types: []string{"knows"}, Source: "a", Target: "b", MinHops: 1, MaxHops: 1}
	leaf := NewFilterAndProjectEdges(epgm.PlainScan(es), qe)
	vleaf := NewFilterAndProjectVertices(epgm.PlainScan(vs), &cypher.QueryVertex{Var: "a", Projection: []string{"name"}})
	join := NewJoinEmbeddings(vleaf, leaf, Morphism{})
	proj := NewProjectEmbeddings(join, []string{"b"}, []embedding.PropRef{{Var: "a", Key: "name"}})
	out := proj.Evaluate().Collect()
	if len(out) != 2 {
		t.Fatalf("rows=%d", len(out))
	}
	if proj.Meta().Columns() != 1 || proj.Meta().PropColumns() != 1 {
		t.Fatalf("meta: %s", proj.Meta())
	}
	for _, e := range out {
		if e.Columns() != 1 {
			t.Fatalf("columns=%d", e.Columns())
		}
	}
}

func TestExpandEmbeddingsForwardAndReverseAgree(t *testing.T) {
	en := env()
	vs, es, _ := chainGraph(en)
	qe := &cypher.QueryEdge{Var: "e", Types: []string{"knows"}, Source: "a", Target: "b", MinHops: 1, MaxHops: 2}

	aLeaf := NewFilterAndProjectVertices(epgm.PlainScan(vs), &cypher.QueryVertex{Var: "a"})
	fwd, err := NewExpandEmbeddings(aLeaf, es, qe, Morphism{}, false)
	if err != nil {
		t.Fatal(err)
	}
	bLeaf := NewFilterAndProjectVertices(epgm.PlainScan(vs), &cypher.QueryVertex{Var: "b"})
	rev, err := NewExpandEmbeddings(bLeaf, es, qe, Morphism{}, true)
	if err != nil {
		t.Fatal(err)
	}

	key := func(e embedding.Embedding, m *embedding.Meta) string {
		ca, _ := m.Column("a")
		cb, _ := m.Column("b")
		cp, _ := m.Column("e")
		return (e.ID(ca).String() + "|" + e.ID(cb).String() + "|" + pathKey(e.Path(cp)))
	}
	var fk, rk []string
	for _, e := range fwd.Evaluate().Collect() {
		fk = append(fk, key(e, fwd.Meta()))
	}
	for _, e := range rev.Evaluate().Collect() {
		rk = append(rk, key(e, rev.Meta()))
	}
	sort.Strings(fk)
	sort.Strings(rk)
	if len(fk) != len(rk) {
		t.Fatalf("forward=%d reverse=%d", len(fk), len(rk))
	}
	for i := range fk {
		if fk[i] != rk[i] {
			t.Fatalf("mismatch: %s vs %s", fk[i], rk[i])
		}
	}
}

func pathKey(ids []epgm.ID) string {
	s := ""
	for _, id := range ids {
		s += id.String() + ","
	}
	return s
}

func TestExpandRequiresBoundEndpoint(t *testing.T) {
	en := env()
	vs, es, _ := chainGraph(en)
	leaf := NewFilterAndProjectVertices(epgm.PlainScan(vs), &cypher.QueryVertex{Var: "z"})
	qe := &cypher.QueryEdge{Var: "e", Source: "a", Target: "b", MinHops: 1, MaxHops: 2}
	if _, err := NewExpandEmbeddings(leaf, es, qe, Morphism{}, false); err == nil {
		t.Fatal("expected error: input binds neither endpoint")
	}
}

func TestValidMorphism(t *testing.T) {
	meta := embedding.NewMeta()
	meta.AddEntry("a", embedding.VertexEntry)
	meta.AddEntry("e", embedding.EdgeEntry)
	meta.AddEntry("b", embedding.VertexEntry)

	var dup embedding.Embedding
	dup = dup.AppendID(1).AppendID(9).AppendID(1)
	if !ValidMorphism(dup, meta, Morphism{}) {
		t.Fatal("homomorphism should accept duplicates")
	}
	if ValidMorphism(dup, meta, Morphism{Vertex: Isomorphism}) {
		t.Fatal("vertex iso should reject duplicate vertices")
	}
	if !ValidMorphism(dup, meta, Morphism{Edge: Isomorphism}) {
		t.Fatal("edge iso should not care about vertices")
	}

	// Path columns contribute interleaved edge/vertex ids.
	pm := embedding.NewMeta()
	pm.AddEntry("a", embedding.VertexEntry)
	pm.AddEntry("p", embedding.PathEntry)
	var withPath embedding.Embedding
	withPath = withPath.AppendID(5).AppendPath([]epgm.ID{7, 5, 8}) // interior vertex 5 duplicates a
	if ValidMorphism(withPath, pm, Morphism{Vertex: Isomorphism}) {
		t.Fatal("path interior duplicate not detected")
	}
	if !ValidMorphism(withPath, pm, Morphism{Edge: Isomorphism}) {
		t.Fatal("edges 7,8 are distinct")
	}
	var dupEdge embedding.Embedding
	dupEdge = dupEdge.AppendID(5).AppendPath([]epgm.ID{7, 6, 7})
	if ValidMorphism(dupEdge, pm, Morphism{Edge: Isomorphism}) {
		t.Fatal("duplicate path edge not detected")
	}
}

func TestSemanticsString(t *testing.T) {
	if Homomorphism.String() != "HOMO" || Isomorphism.String() != "ISO" {
		t.Fatal("semantics names")
	}
}
