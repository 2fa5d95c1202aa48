package operators

import (
	"testing"

	"gradoop/internal/cypher"
	"gradoop/internal/dataflow"
	"gradoop/internal/epgm"
)

// likesGraph: p1 likes m1; p2 likes nothing.
func likesGraph(e *dataflow.Env) (*dataflow.Dataset[epgm.Vertex], *dataflow.Dataset[epgm.Edge], []epgm.ID) {
	p1 := epgm.Vertex{ID: epgm.NewID(), Label: "Person"}
	p2 := epgm.Vertex{ID: epgm.NewID(), Label: "Person"}
	m1 := epgm.Vertex{ID: epgm.NewID(), Label: "Movie",
		Properties: epgm.Properties{}.Set("year", epgm.PVInt(1979))}
	e1 := epgm.Edge{ID: epgm.NewID(), Label: "likes", Source: p1.ID, Target: m1.ID}
	vs := dataflow.FromSlice(e, []epgm.Vertex{p1, p2, m1})
	es := dataflow.FromSlice(e, []epgm.Edge{e1})
	return vs, es, []epgm.ID{p1.ID, p2.ID, m1.ID, e1.ID}
}

func TestOptionalJoinEmbeddingsDirect(t *testing.T) {
	en := env()
	vs, es, ids := likesGraph(en)
	persons := NewFilterAndProjectVertices(&cypher.QueryVertex{Var: "p", Labels: []string{"Person"}})
	qe := &cypher.QueryEdge{Var: "e", Types: []string{"likes"}, Source: "p", Target: "m", MinHops: 1, MaxHops: 1}
	likes := NewFilterAndProjectEdges(qe)
	opt := NewOptionalJoinEmbeddings(persons, likes, Morphism{}, nil, nil)

	if opt.Meta().Columns() != 3 { // p, e, m
		t.Fatalf("meta: %s", opt.Meta())
	}
	out := opt.Evaluate(plainRun(vs, es)).Collect()
	if len(out) != 2 {
		t.Fatalf("rows=%d", len(out))
	}
	var matched, nulled int
	for _, emb := range out {
		if emb.IsNullAt(1) {
			nulled++
			if emb.ID(0) != ids[1] {
				t.Fatalf("null row should be p2: %v", emb)
			}
			if !emb.IsNullAt(2) {
				t.Fatal("m should be null too")
			}
		} else {
			matched++
			if emb.ID(0) != ids[0] || emb.ID(1) != ids[3] || emb.ID(2) != ids[2] {
				t.Fatalf("matched row: %v", emb)
			}
		}
	}
	if matched != 1 || nulled != 1 {
		t.Fatalf("matched=%d nulled=%d", matched, nulled)
	}
	if got := opt.Description(); !containsStr(got, "OptionalJoinEmbeddings") {
		t.Fatalf("description: %s", got)
	}
	if len(opt.Children()) != 2 {
		t.Fatal("children")
	}
}

func TestOptionalJoinPredicateTurnsRowNull(t *testing.T) {
	en := env()
	vs, es, _ := likesGraph(en)
	persons := NewFilterAndProjectVertices(&cypher.QueryVertex{Var: "p", Labels: []string{"Person"}})
	mleaf := NewFilterAndProjectVertices(&cypher.QueryVertex{Var: "m", Labels: []string{"Movie"}, Projection: []string{"year"}})
	likes := NewFilterAndProjectEdges(&cypher.QueryEdge{Var: "e", Types: []string{"likes"}, Source: "p", Target: "m", MinHops: 1, MaxHops: 1})
	sub := NewJoinEmbeddings(mleaf, likes, Morphism{}, nil)

	// Predicate m.year > 1990 fails for the only movie: every person ends
	// up with a null extension.
	pred, err := cypher.Parse(`MATCH (m) WHERE m.year > 1990 RETURN *`)
	if err != nil {
		t.Fatal(err)
	}
	opt := NewOptionalJoinEmbeddings(persons, sub, Morphism{}, []cypher.Expr{pred.Where}, nil)
	for _, emb := range opt.Evaluate(plainRun(vs, es)).Collect() {
		mCol, _ := opt.Meta().Column("m")
		if !emb.IsNullAt(mCol) {
			t.Fatalf("expected null extension: %v", emb)
		}
	}
}

func TestSemiAndAntiJoinDirect(t *testing.T) {
	en := env()
	vs, es, ids := likesGraph(en)
	persons := NewFilterAndProjectVertices(&cypher.QueryVertex{Var: "p", Labels: []string{"Person"}})
	likes := NewFilterAndProjectEdges(&cypher.QueryEdge{Var: "e", Types: []string{"likes"},
		Source: "p", Target: "m", MinHops: 1, MaxHops: 1})

	semi := NewSemiJoinEmbeddings(persons, likes, Morphism{}, false)
	if semi.Meta().Columns() != 1 {
		t.Fatalf("semi meta must be the left meta: %s", semi.Meta())
	}
	out := semi.Evaluate(plainRun(vs, es)).Collect()
	if len(out) != 1 || out[0].ID(0) != ids[0] {
		t.Fatalf("semi: %v", out)
	}

	anti := NewSemiJoinEmbeddings(persons, likes, Morphism{}, true)
	out = anti.Evaluate(plainRun(vs, es)).Collect()
	if len(out) != 1 || out[0].ID(0) != ids[1] {
		t.Fatalf("anti: %v", out)
	}
	if !containsStr(anti.Description(), "AntiJoin") || !containsStr(semi.Description(), "SemiJoin") {
		t.Fatal("descriptions")
	}
}

// TestCachedEvaluatesOnce: a Cached operator's subtree runs once per run, and
// the result is the run's - another run of the same tree evaluates it again.
func TestCachedEvaluatesOnce(t *testing.T) {
	en := env()
	vs, _, _ := likesGraph(en)
	leaf := NewFilterAndProjectVertices(&cypher.QueryVertex{Var: "p"})
	cached := NewCached(leaf)
	en.ResetMetrics()
	r := plainRun(vs, nil)
	a := cached.Evaluate(r)
	first := en.Metrics().TotalCPU
	b := cached.Evaluate(r)
	if en.Metrics().TotalCPU != first {
		t.Fatal("second evaluation did work")
	}
	if a != b {
		t.Fatal("cached result not shared")
	}
	if c := cached.Evaluate(plainRun(vs, nil)); c == a || en.Metrics().TotalCPU != 2*first {
		t.Fatal("a second run read the first run's result")
	}
	if cached.Description() != "Cached" || len(cached.Children()) != 1 {
		t.Fatal("cached metadata")
	}
}

func TestFilterEmbeddingsDirect(t *testing.T) {
	en := env()
	vs, _, _ := likesGraph(en)
	leaf := NewFilterAndProjectVertices(&cypher.QueryVertex{Var: "m", Labels: []string{"Movie"}, Projection: []string{"year"}})
	q, err := cypher.Parse(`MATCH (m) WHERE m.year = 1979 RETURN *`)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFilterEmbeddings(leaf, []cypher.Expr{q.Where})
	if got := f.Evaluate(plainRun(vs, nil)).Count(); got != 1 {
		t.Fatalf("filter passed %d", got)
	}
	q2, _ := cypher.Parse(`MATCH (m) WHERE m.year = 1980 RETURN *`)
	f2 := NewFilterEmbeddings(leaf, []cypher.Expr{q2.Where})
	if got := f2.Evaluate(plainRun(vs, nil)).Count(); got != 0 {
		t.Fatalf("filter passed %d", got)
	}
	if !containsStr(f.Description(), "FilterEmbeddings") {
		t.Fatal("description")
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
