package operators

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"gradoop/internal/cypher"
	"gradoop/internal/dataflow"
	"gradoop/internal/embedding"
	"gradoop/internal/trace"
)

// TestFilterRightTargets walks the right input of a join for the join that
// takes its key set (FilterRight), on every shape the walk tells apart.
func TestFilterRightTargets(t *testing.T) {
	v := func(name string) Operator { return NewFilterAndProjectVertices(&cypher.QueryVertex{Var: name}) }
	e := func(name, src, tgt string) Operator { return NewFilterAndProjectEdges(plainKnows(name, src, tgt)) }
	join := func(l, r Operator) *JoinEmbeddings { return NewJoinEmbeddings(l, r, Morphism{}, nil) }
	twoPath := join(e("e2", "a", "b"), e("e3", "b", "c"))
	square := join(e("e3", "c", "d"), e("e4", "d", "a"))
	anyPred, err := cypher.Parse("MATCH (a) WHERE a.n > 1 RETURN *")
	if err != nil {
		t.Fatal(err)
	}
	filtered := join(e("e2", "a", "b"), e("e3", "b", "c"))
	expand, err := NewExpandEmbeddings(e("e2", "a", "b"),
		&cypher.QueryEdge{Var: "p", Types: []string{"knows"}, Source: "b", Target: "c", MinHops: 1, MaxHops: 3}, Morphism{}, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		join   *JoinEmbeddings
		target *JoinEmbeddings
	}{
		{"triangle: the right input's root", join(e("e1", "a", "c"), twoPath), twoPath},
		{"square: the root, whose inputs bind a and c apart",
			join(join(e("e1", "a", "b"), e("e2", "b", "c")), square), square},
		{"square: below a root one input of which binds a and c",
			join(join(e("e1", "a", "b"), e("e2", "b", "c")), join(square, e("e5", "a", "z"))), square},
		{"below a filter", join(e("e1", "a", "c"), NewFilterEmbeddings(filtered, []cypher.Expr{anyPred.Where})), filtered},
		{"over an expansion: none", join(e("e1", "a", "c"), expand), nil},
		{"under a shared leaf's Cached: none", join(e("e1", "a", "c"), NewCached(join(e("e2", "a", "b"), e("e3", "b", "c")))), nil},
		{"on one variable: none, a leaf binds it", join(v("b"), join(e("e2", "a", "b"), e("e3", "b", "c"))), nil},
	} {
		tc.join.FilterRight()
		if got := tc.join.Target(); got != tc.target {
			t.Errorf("%s: target %v, want %v", tc.name, describe(got), describe(tc.target))
		}
	}
}

func describe(op *JoinEmbeddings) string {
	if op == nil {
		return "none"
	}
	return op.Description()
}

// TestKeySetFiltersTheTarget runs a triangle whose closing join filters its
// right input against the same plan that does not: the same rows, the target
// writes only the pairs whose key the left input has, and a trace says so on
// both joins.
func TestKeySetFiltersTheTarget(t *testing.T) {
	store := inplaceStore(20, 3) // 60 knows edges, a->a+1..a+3
	plan := func(filter bool) (*JoinEmbeddings, *JoinEmbeddings) {
		target := NewJoinEmbeddings(NewFilterAndProjectEdges(plainKnows("e2", "a", "b")),
			NewFilterAndProjectEdges(plainKnows("e3", "b", "c")), Morphism{}, nil)
		closing := NewJoinEmbeddings(NewFilterAndProjectEdges(plainKnows("e1", "a", "c")), target, Morphism{}, nil)
		if filter {
			closing.FilterRight()
		}
		return closing, target
	}
	run := func(filter bool) (rows []embedding.Embedding, c *trace.Collector, closing, target *JoinEmbeddings, stages int64) {
		closing, target = plan(filter)
		env := dataflow.NewEnv(dataflow.DefaultConfig(4))
		c = trace.NewCollector()
		env.SetTracer(c)
		env.Begin(nil)
		rows = closing.Evaluate(indexedRun(store.Index(env))).Collect()
		if err := env.Finish(); err != nil {
			t.Fatal(err)
		}
		return rows, c, closing, target, env.Metrics().Stages
	}
	want, _, _, _, wantStages := run(false)
	got, c, closing, target, stages := run(true)
	if !slices.EqualFunc(bag(got), bag(want), bytes.Equal) || len(got) == 0 {
		t.Fatalf("filtered: %d rows, unfiltered %d", len(got), len(want))
	}
	if stages != wantStages+1 {
		t.Errorf("filtered: %d stages, unfiltered %d: want one all-gather more", stages, wantStages)
	}
	// Each a->b->c with c = a+2..a+6 is a pair of the target; only c <= a+3
	// closes on an edge a->c.
	st, _ := c.Op(target)
	if st.Rows != int64(len(want)) || !strings.HasPrefix(st.Note, "sip dropped=") || st.Note == "sip dropped=0" {
		t.Errorf("target wrote %d rows, note %q; want %d and the pairs it dropped", st.Rows, st.Note, len(want))
	}
	if st, _ := c.Op(closing); st.Note != "sip n=60" {
		t.Errorf("closing join's note %q, want sip n=60", st.Note)
	}
}
