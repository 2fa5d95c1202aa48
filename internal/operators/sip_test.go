package operators

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"gradoop/internal/cypher"
	"gradoop/internal/dataflow"
	"gradoop/internal/embedding"
	"gradoop/internal/trace"
)

// TestFilterRightTargets walks the right input of a join for the join or the
// expansion that takes its key set (FilterRight), on every shape the walk
// tells apart, and says which set an expansion takes.
func TestFilterRightTargets(t *testing.T) {
	v := func(name string) Operator { return NewFilterAndProjectVertices(&cypher.QueryVertex{Var: name}) }
	e := func(name, src, tgt string) Operator { return NewFilterAndProjectEdges(plainKnows(name, src, tgt)) }
	join := func(l, r Operator) *JoinEmbeddings { return NewJoinEmbeddings(l, r, Morphism{}, nil) }
	expand := func(in Operator, src, tgt string) *ExpandEmbeddings {
		x, err := NewExpandEmbeddings(in, &cypher.QueryEdge{Var: "p", Types: []string{"knows"}, Source: src, Target: tgt, MinHops: 1, MaxHops: 3},
			Morphism{}, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
	twoPath := join(e("e2", "a", "b"), e("e3", "b", "c"))
	square := join(e("e3", "c", "d"), e("e4", "d", "a"))
	anyPred, err := cypher.Parse("MATCH (a) WHERE a.n > 1 RETURN *")
	if err != nil {
		t.Fatal(err)
	}
	filtered := join(e("e2", "a", "b"), e("e3", "b", "c"))
	seeded := expand(e("e2", "a", "b"), "b", "c")         // binds a and b, walks to c
	ended := expand(e("e2", "a", "b"), "b", "c")          // the same, joined on c alone
	through := join(e("e2", "a", "x"), e("e3", "x", "b")) // under an expansion that binds a and b
	closes := join(e("e2", "a", "b"), e("e3", "b", "c"))  // under an expansion from c back to a
	optional := expand(e("e2", "a", "b"), "b", "c")       // in an OPTIONAL group
	for _, tc := range []struct {
		name   string
		join   *JoinEmbeddings
		target Operator
		endSet bool
	}{
		{"triangle: the right input's root", join(e("e1", "a", "c"), twoPath), twoPath, false},
		{"square: the root, whose inputs bind a and c apart",
			join(join(e("e1", "a", "b"), e("e2", "b", "c")), square), square, false},
		{"square: below a root one input of which binds a and c",
			join(join(e("e1", "a", "b"), e("e2", "b", "c")), join(square, e("e5", "a", "z"))), square, false},
		{"below a filter", join(e("e1", "a", "c"), NewFilterEmbeddings(filtered, []cypher.Expr{anyPred.Where})), filtered, false},
		{"over an expansion whose input binds a: a seed set", join(e("e1", "a", "c"), seeded), seeded, false},
		{"over an expansion joined on its far end alone: an end set", join(v("c"), ended), ended, true},
		{"through an expansion whose input binds every join variable",
			join(e("e1", "a", "b"), expand(through, "b", "c")), through, false},
		{"through an expansion that closes a cycle", join(e("e1", "a", "c"), expand(closes, "c", "a")), closes, false},
		{"on the path variable: none", join(expand(v("b"), "b", "c"), expand(e("e2", "a", "b"), "b", "c")), nil, false},
		{"over an expansion under Cached: none", join(e("e1", "a", "c"), NewCached(expand(e("e2", "a", "b"), "b", "c"))), nil, false},
		{"over an expansion under Alias: none",
			join(e("e1", "a", "c"), NewAlias(expand(e("e2", "a", "b"), "b", "c"), map[string]string{"p": "q"})), nil, false},
		{"over an OPTIONAL MATCH's join, whose mandatory side is an expansion: none",
			join(e("e1", "a", "c"), NewOptionalJoinEmbeddings(optional, e("e5", "c", "z"), Morphism{}, nil, nil)), nil, false},
		{"under a shared leaf's Cached: none", join(e("e1", "a", "c"), NewCached(join(e("e2", "a", "b"), e("e3", "b", "c")))), nil, false},
		{"on one variable: none, a leaf binds it", join(v("b"), join(e("e2", "a", "b"), e("e3", "b", "c"))), nil, false},
	} {
		tc.join.FilterRight()
		if got := tc.join.Target(); got != tc.target {
			t.Errorf("%s: target %v, want %v", tc.name, describe(got), describe(tc.target))
		}
		if got := tc.join.EndSet(); got != tc.endSet {
			t.Errorf("%s: end set %v, want %v", tc.name, got, tc.endSet)
		}
	}
}

func describe(op Operator) string {
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

// TestKeySetFiltersAnExpansion runs a closing join over an expansion against
// the same plan that does not filter: with a seed set (the join variables the
// expansion's input binds) and with an end set (the path's far end alone), over
// the plain graph, where the expansion is the bulk iteration, and over the
// pinned store, where it walks the store in place. The rows are the same, the
// expansion writes fewer, and a trace counts what it dropped: input rows
// before the first hop, or paths before they are written.
func TestKeySetFiltersAnExpansion(t *testing.T) {
	for _, walked := range []bool{false, true} {
		t.Run(fmt.Sprint("walked=", walked), func(t *testing.T) { checkKeySetFiltersAnExpansion(t, walked) })
	}
}

func checkKeySetFiltersAnExpansion(t *testing.T, walked bool) {
	store := inplaceStore(20, 3) // 60 knows edges, a->a+1..a+3
	expand := func(in Operator, minHops int) *ExpandEmbeddings {
		x, err := NewExpandEmbeddings(in, &cypher.QueryEdge{Var: "p", Types: []string{"knows"}, Source: "b", Target: "c", MinHops: minHops, MaxHops: 2},
			Morphism{}, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
	for _, tc := range []struct {
		name    string
		plan    func() (*JoinEmbeddings, *ExpandEmbeddings)
		endSet  bool
		keys    int
		dropped int
	}{
		{"seed set on a", func() (*JoinEmbeddings, *ExpandEmbeddings) {
			// Three persons a and their edges a->c; the expansion starts from
			// every edge a->b and walks b->..->c.
			x := expand(NewFilterAndProjectEdges(plainKnows("e2", "a", "b")), 1)
			left := NewJoinEmbeddings(firstPersons(t, "a", 3), NewFilterAndProjectEdges(plainKnows("e1", "a", "c")), Morphism{}, nil)
			return NewJoinEmbeddings(left, x, Morphism{}, nil), x
		}, false, 3, 60 - 9},
		{"end set on c", func() (*JoinEmbeddings, *ExpandEmbeddings) {
			x := expand(NewFilterAndProjectEdges(plainKnows("e2", "a", "b")), 0)
			return NewJoinEmbeddings(firstPersons(t, "c", 3), x, Morphism{}, nil), x
		}, true, 3, -1},
	} {
		run := func(filter bool) (rows []embedding.Embedding, c *trace.Collector, closing *JoinEmbeddings, x *ExpandEmbeddings, stages int64) {
			closing, x = tc.plan()
			if filter {
				closing.FilterRight()
			}
			env := dataflow.NewEnv(dataflow.DefaultConfig(4))
			c = trace.NewCollector()
			env.SetTracer(c)
			env.Begin(nil)
			r := plainRun(dataflow.FromSlice(env, store.Vertices), dataflow.FromSlice(env, store.Edges))
			if walked {
				r = indexedRun(store.Index(env))
			}
			rows = closing.Evaluate(r).Collect()
			if err := env.Finish(); err != nil {
				t.Fatal(err)
			}
			return rows, c, closing, x, env.Metrics().Stages
		}
		want, wantC, _, wantX, wantStages := run(false)
		got, c, closing, x, stages := run(true)
		if closing.Target() != x || closing.EndSet() != tc.endSet {
			t.Fatalf("%s: target %s, end set %v", tc.name, describe(closing.Target()), closing.EndSet())
		}
		if !slices.EqualFunc(bag(got), bag(want), bytes.Equal) || len(got) == 0 {
			t.Fatalf("%s: filtered: %d rows, unfiltered %d", tc.name, len(got), len(want))
		}
		if st, _ := c.Op(closing); st.Note != fmt.Sprintf("sip n=%d", tc.keys) {
			t.Errorf("%s: closing join's note %q, want sip n=%d", tc.name, st.Note, tc.keys)
		}
		st, _ := c.Op(x)
		all, _ := wantC.Op(wantX)
		if strings.HasPrefix(st.Note, "walked in place: edges=") != walked {
			t.Errorf("%s: expansion's note %q", tc.name, st.Note)
		}
		var dropped int
		_, sip, _ := strings.Cut(st.Note, "sip dropped=")
		if _, err := fmt.Sscanf(sip, "%d", &dropped); err != nil || dropped == 0 ||
			tc.dropped >= 0 && dropped != tc.dropped {
			t.Errorf("%s: expansion's note %q, want the input rows or paths it dropped (%d)", tc.name, st.Note, tc.dropped)
		}
		if st.Rows >= all.Rows {
			t.Errorf("%s: the expansion wrote %d rows, %d unfiltered", tc.name, st.Rows, all.Rows)
		}
		if tc.endSet && st.Rows+int64(dropped) != all.Rows {
			t.Errorf("%s: %d paths written and %d dropped, %d unfiltered", tc.name, st.Rows, dropped, all.Rows)
		}
		if stages != wantStages+1 {
			t.Errorf("%s: filtered: %d stages, unfiltered %d: want one all-gather more", tc.name, stages, wantStages)
		}
	}
}
