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

// plainAccess is a test graph as a run reads it: every leaf scans all of vs or
// all of es, whatever its labels, like the planner's PlainAccess.
type plainAccess struct {
	vs *dataflow.Dataset[epgm.Vertex]
	es *dataflow.Dataset[epgm.Edge]
}

func (a plainAccess) Env() *dataflow.Env {
	if a.vs == nil {
		return a.es.Env()
	}
	return a.vs.Env()
}
func (a plainAccess) Vertices([]string) epgm.Scan[epgm.Vertex] { return epgm.PlainScan(a.vs) }
func (a plainAccess) Edges([]string) epgm.Scan[epgm.Edge]      { return epgm.PlainScan(a.es) }

// plainRun is a run of a plan over the test graph vs, es.
func plainRun(vs *dataflow.Dataset[epgm.Vertex], es *dataflow.Dataset[epgm.Edge]) *Run {
	return NewRun(plainAccess{vs, es}, nil)
}

// indexedAccess is a pinned store as a run reads it, like the planner's
// IndexedAccess.
type indexedAccess struct{ idx *epgm.IndexedLogicalGraph }

func (a indexedAccess) Env() *dataflow.Env { return a.idx.Env() }
func (a indexedAccess) Vertices(labels []string) epgm.Scan[epgm.Vertex] {
	return a.idx.Vertices(labels...)
}
func (a indexedAccess) Edges(types []string) epgm.Scan[epgm.Edge] { return a.idx.Edges(types...) }

// indexedRun is a run of a plan over a pinned store.
func indexedRun(idx *epgm.IndexedLogicalGraph) *Run { return NewRun(indexedAccess{idx}, nil) }

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
	op := NewFilterAndProjectVertices(qv)
	out := op.Evaluate(plainRun(vs, nil)).Collect()
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
	directed := NewFilterAndProjectEdges(qe).Evaluate(plainRun(nil, es))
	if directed.Count() != 2 {
		t.Fatalf("directed=%d", directed.Count())
	}
	und := &cypher.QueryEdge{Var: "e", Types: []string{"knows"}, Source: "a", Target: "b",
		Undirected: true, MinHops: 1, MaxHops: 1}
	undirected := NewFilterAndProjectEdges(und).Evaluate(plainRun(nil, es))
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
	op := NewFilterAndProjectEdges(qe)
	out := op.Evaluate(plainRun(nil, es)).Collect()
	if len(out) != 1 {
		t.Fatalf("loops=%d", len(out))
	}
	if op.Meta().Columns() != 2 {
		t.Fatalf("loop meta columns=%d want 2", op.Meta().Columns())
	}
}

func TestJoinEmbeddingsPanicsWithoutSharedVars(t *testing.T) {
	a := NewFilterAndProjectVertices(&cypher.QueryVertex{Var: "a"})
	b := NewFilterAndProjectVertices(&cypher.QueryVertex{Var: "b"})
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
	a := NewFilterAndProjectVertices(&cypher.QueryVertex{Var: "a", Labels: []string{"Person"}})
	b := NewFilterAndProjectVertices(&cypher.QueryVertex{Var: "b", Labels: []string{"Tag"}})
	cp := NewCartesianProduct(a, b, Morphism{})
	if got := cp.Evaluate(plainRun(vs, nil)).Count(); got != 2 {
		t.Fatalf("cartesian=%d want 2", got)
	}
	// ISO with overlapping labels: (a:Person),(b:Person) forbids a=b.
	b2 := NewFilterAndProjectVertices(&cypher.QueryVertex{Var: "b", Labels: []string{"Person"}})
	iso := NewCartesianProduct(a, b2, Morphism{Vertex: Isomorphism})
	if got := iso.Evaluate(plainRun(vs, nil)).Count(); got != 2 {
		t.Fatalf("iso cartesian=%d want 2 (4 minus diagonal)", got)
	}
}

func TestExpandEmbeddingsForwardAndReverseAgree(t *testing.T) {
	en := env()
	vs, es, _ := chainGraph(en)
	qe := &cypher.QueryEdge{Var: "e", Types: []string{"knows"}, Source: "a", Target: "b", MinHops: 1, MaxHops: 2}

	aLeaf := NewFilterAndProjectVertices(&cypher.QueryVertex{Var: "a"})
	fwd, err := NewExpandEmbeddings(aLeaf, qe, Morphism{}, false)
	if err != nil {
		t.Fatal(err)
	}
	bLeaf := NewFilterAndProjectVertices(&cypher.QueryVertex{Var: "b"})
	rev, err := NewExpandEmbeddings(bLeaf, qe, Morphism{}, true)
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
	for _, e := range fwd.Evaluate(plainRun(vs, es)).Collect() {
		fk = append(fk, key(e, fwd.Meta()))
	}
	for _, e := range rev.Evaluate(plainRun(vs, es)).Collect() {
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
	leaf := NewFilterAndProjectVertices(&cypher.QueryVertex{Var: "z"})
	qe := &cypher.QueryEdge{Var: "e", Source: "a", Target: "b", MinHops: 1, MaxHops: 2}
	if _, err := NewExpandEmbeddings(leaf, qe, Morphism{}, false); err == nil {
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
