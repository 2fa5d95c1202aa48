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
// expansion that takes its key set (PlaceKeySets), on every shape the walk
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
		tc.join.PlaceKeySets()
		sets := tc.join.KeySets()
		if tc.target == nil {
			if len(sets) != 0 {
				t.Errorf("%s: %d sets, want none", tc.name, len(sets))
			}
			continue
		}
		// An end set is followed by its transfer to the same expansion.
		want := 1
		if tc.endSet {
			want = 2
		}
		if len(sets) != want || tc.join.RightFirst() {
			t.Errorf("%s: %d sets, right first %v; want %d of the left input's", tc.name, len(sets), tc.join.RightFirst(), want)
			continue
		}
		if s := sets[0]; s.Source != tc.join.Left || s.Target != tc.target || s.End() != tc.endSet || s.transfer {
			t.Errorf("%s: set to %s, end set %v; want %s, %v", tc.name, describe(s.Target), s.End(), describe(tc.target), tc.endSet)
		}
		if s := sets[want-1]; tc.endSet && (s.Source != tc.join.Left || s.Target != tc.target || !s.transfer || s.End()) {
			t.Errorf("%s: the end set's transfer goes to %s, transfer %v", tc.name, describe(s.Target), s.transfer)
		}
	}
}

// TestKeySetWalk holds lowest, the one walk that places every key set, to the
// lowest join or expansion that binds a set's variables, and place to where
// that holds them: into an expansion's input, stopping above a leaf, a Cached or
// an Alias, where both inputs bind the variables, and at the target mirrored
// into the left input of a join that runs its right input first.
func TestKeySetWalk(t *testing.T) {
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
	source := v("a") // the sets' source: the walk reads only its columns
	overLeaf := join(v("a"), e("e1", "a", "b"))
	underExpansion := join(e("e1", "a", "b"), e("e2", "b", "d"))
	overCached := join(NewCached(e("e1", "a", "b")), e("e2", "b", "d"))
	cached := NewCached(e("e1", "x", "y"))
	overAlias := join(v("b"), NewAlias(cached, map[string]string{"x": "a", "y": "b", "e1": "e9"}))
	both := join(e("e1", "a", "b"), e("e2", "a", "c"))
	overLeafExpansion := expand(e("e1", "a", "b"), "b", "c")
	for _, tc := range []struct {
		name   string
		from   Operator
		vars   []string
		target Operator
		cols   []pairCol
	}{
		{"stopping above a leaf", overLeaf, []string{"a"}, overLeaf, []pairCol{{col: 0}}},
		{"into an expansion's input", expand(underExpansion, "d", "c"), []string{"a"}, underExpansion, []pairCol{{col: 0}}},
		{"through a filter into an expansion's input",
			NewFilterEmbeddings(expand(underExpansion, "d", "c"), nil), []string{"a"}, underExpansion, []pairCol{{col: 0}}},
		{"stopping above a Cached", overCached, []string{"a"}, overCached, []pairCol{{col: 0}}},
		{"stopping above an Alias", overAlias, []string{"a"}, overAlias, []pairCol{{right: true, col: 0}}},
		{"both inputs binding the variables: the left one's", both, []string{"a"}, both, []pairCol{{col: 0}}},
		{"both inputs binding them apart: each one's", both, []string{"c", "b"}, both, []pairCol{{right: true, col: 2}, {col: 2}}},
		{"an expansion over a leaf: its input row", overLeafExpansion, []string{"a"}, overLeafExpansion, []pairCol{{col: 0}}},
		{"an expansion's far end: an end set", overLeafExpansion, []string{"c"}, overLeafExpansion, nil},
		{"an expansion's path: none", overLeafExpansion, []string{"p"}, nil, nil},
		{"a leaf: none", e("e1", "a", "b"), []string{"a"}, nil, nil},
		{"a Cached: none", cached, []string{"x"}, nil, nil},
	} {
		s, ok := place(source, tc.from, tc.vars)
		if tc.target == nil {
			if ok {
				t.Errorf("%s: set to %s, want none", tc.name, describe(s.Target))
			}
			continue
		}
		if !ok || s.Target != tc.target || !slices.Equal(s.targetCols, tc.cols) {
			t.Errorf("%s: set to %s at %v, want %s at %v", tc.name, describe(s.Target), s.targetCols, describe(tc.target), tc.cols)
		}
	}

	// A join closing a cycle through an expansion whose seed set a selective
	// leaf under its left input binds runs right first.
	q := mirrored(t)
	q.root.PlaceKeySets()
	if !q.root.RightFirst() {
		t.Fatal("the closing join runs its left input first")
	}
	var got []string
	for _, s := range q.root.KeySets() {
		got = append(got, fmt.Sprintf("%s(%s)->%s", q.root.from(&s), strings.Join(s.Vars, ","), s.Target.Description()))
	}
	want := []string{
		"leaf(a)->" + q.forward.Description(),
		"right(a,c)->" + q.composite.Description(),
		"right(a)->" + q.onA.Description(),
		"right(c)->" + q.onC.Description(),
	}
	if !slices.Equal(got, want) || q.root.KeySets()[0].Source != q.leaf {
		t.Errorf("sets %q, want %q", got, want)
	}
}

// rightFirst is a plan whose closing join runs its right input first, and
// the targets of its sets: a->b->c->g on the left, the persons a filtered; on
// the right a->d->f and a path from f to c.
type rightFirst struct {
	root                         *JoinEmbeddings
	leaf                         *Cached
	forward, composite, onA, onC *JoinEmbeddings
}

func mirrored(t testing.TB) rightFirst {
	var q rightFirst
	knows := func(name, src, tgt string) Operator { return NewFilterAndProjectEdges(plainKnows(name, src, tgt)) }
	q.leaf = NewCached(firstPersons(t, "a", 3))
	q.onA = NewJoinEmbeddings(q.leaf, knows("e1", "a", "b"), Morphism{}, nil)
	q.onC = NewJoinEmbeddings(knows("e2", "b", "c"), knows("e5", "c", "g"), Morphism{}, nil)
	q.composite = NewJoinEmbeddings(q.onA, q.onC, Morphism{}, nil)
	q.forward = NewJoinEmbeddings(knows("e3", "a", "d"), knows("e4", "d", "f"), Morphism{}, nil)
	x, err := NewExpandEmbeddings(q.forward, &cypher.QueryEdge{Var: "p", Types: []string{"knows"}, Source: "f", Target: "c", MinHops: 1, MaxHops: 2},
		Morphism{}, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	q.root = NewJoinEmbeddings(q.composite, x, Morphism{}, nil)
	return q
}

// TestRightFirstFiltersTheLeft runs a closing join that runs its right input
// first against the same plan that hands on no set, over the plain graph and
// the pinned store: the same rows, one all-gather for each of the four sets,
// and a trace that names each set's source and size at the join and what it
// dropped at its target, which writes fewer rows - at the target's pairs or in
// the scans of its input leaves that bind the set's variables.
func TestRightFirstFiltersTheLeft(t *testing.T) {
	store := inplaceStore(20, 3) // 60 knows edges, a->a+1..a+3
	for _, walked := range []bool{false, true} {
		run := func(sets bool) (rows []embedding.Embedding, c *trace.Collector, q rightFirst, stages int64) {
			q = mirrored(t)
			if sets {
				q.root.PlaceKeySets()
			}
			env := dataflow.NewEnv(dataflow.DefaultConfig(4))
			c = trace.NewCollector()
			env.SetTracer(c)
			env.Begin(nil)
			r := plainRun(dataflow.FromSlice(env, store.Vertices), dataflow.FromSlice(env, store.Edges))
			if walked {
				r = indexedRun(store.Index(env))
			}
			rows = q.root.Evaluate(r).Collect()
			if err := env.Finish(); err != nil {
				t.Fatal(err)
			}
			return rows, c, q, env.Metrics().Stages
		}
		want, wantC, wantQ, wantStages := run(false)
		got, c, q, stages := run(true)
		if !slices.EqualFunc(bag(got), bag(want), bytes.Equal) || len(got) == 0 {
			t.Fatalf("walked=%v: right first: %d rows, no sets %d", walked, len(got), len(want))
		}
		// Over the store every join of an edge leaf walks it, onC too, both of
		// whose leaves bind c: its left leaf's scan tests the set, and the walk
		// tests it on every edge of the right one it reads.
		wantMore := int64(4)
		if stages != wantStages+wantMore {
			t.Errorf("walked=%v: %d stages, %d with no sets: want four all-gathers more, %d in all", walked, stages, wantStages, wantMore)
		}
		st, _ := c.Op(q.root)
		if n := strings.Count(st.Note, "sip "); n != 4 ||
			!strings.HasPrefix(st.Note, "sip leaf(a) n=3 sip right(a,c) n=") {
			t.Errorf("walked=%v: closing join's note %q, want the leaf's set and three of the right input's", walked, st.Note)
		}
		// Every person a reaches a path; the other targets drop what cannot
		// close it. A set is tested in the scan of every input leaf that binds
		// its variables - or, over the store, in the walk of a leaf - but the
		// leaf the run holds already (onA's, run first), and at the pairs of a
		// target that has none or walks one beside a selective input (onA over
		// the store).
		onA := []string{"right"}
		if walked {
			onA = []string{"pairs"}
		}
		for _, target := range []struct {
			got, all *JoinEmbeddings
			drops    bool
			at       []string
		}{
			{q.forward, wantQ.forward, true, []string{"left"}}, {q.composite, wantQ.composite, true, []string{"pairs"}},
			{q.onA, wantQ.onA, false, onA}, {q.onC, wantQ.onC, true, []string{"left", "right"}},
		} {
			st, _ := c.Op(target.got)
			all, _ := wantC.Op(target.all)
			dropped, at := droppedAt(c, target.got)
			if !slices.Equal(at, target.at) || target.drops && (dropped == 0 || st.Rows >= all.Rows) {
				t.Errorf("walked=%v: %s wrote %d rows of %d, dropped %d at %q, want at %q",
					walked, target.got.Description(), st.Rows, all.Rows, dropped, at, target.at)
			}
		}
	}
}

// droppedAt reads a trace for what the key sets at a join dropped: at its
// pairs ("sip dropped=") and in its inputs' scans ("sip scanned= dropped="),
// and where they were tested: "pairs", "left", "right".
func droppedAt(c *trace.Collector, j *JoinEmbeddings) (dropped int64, at []string) {
	for i, op := range []Operator{j, j.Left, j.Right} {
		st, ok := c.Op(op)
		_, note, found := strings.Cut(st.Note, "sip ")
		if !ok || !found {
			continue
		}
		var scanned, n int64
		var err error
		if i == 0 { // the join's own note, at its pairs
			_, err = fmt.Sscanf(note, "dropped=%d", &n)
		} else {
			_, err = fmt.Sscanf(note, "scanned=%d dropped=%d", &scanned, &n)
		}
		if err != nil {
			continue
		}
		dropped += n
		at = append(at, [...]string{"pairs", "left", "right"}[i])
	}
	return dropped, at
}

func describe(op Operator) string {
	if op == nil {
		return "none"
	}
	return op.Description()
}

// TestKeySetFiltersTheTarget runs a triangle whose closing join filters its
// right input against the same plan that does not, over the pinned store: the
// same rows, the target - which walks its right leaf - writes only the pairs
// whose key the left input has, and a trace says so on both joins.
func TestKeySetFiltersTheTarget(t *testing.T) {
	store := inplaceStore(20, 3) // 60 knows edges, a->a+1..a+3
	plan := func(filter bool) (*JoinEmbeddings, *JoinEmbeddings) {
		target := NewJoinEmbeddings(NewFilterAndProjectEdges(plainKnows("e2", "a", "b")),
			NewFilterAndProjectEdges(plainKnows("e3", "b", "c")), Morphism{}, nil)
		closing := NewJoinEmbeddings(NewFilterAndProjectEdges(plainKnows("e1", "a", "c")), target, Morphism{}, nil)
		if filter {
			closing.PlaceKeySets()
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
	// The unfiltered closing join walks its edge leaf, closing on both ends;
	// the filtered one runs that leaf first for its keys and joins by hash:
	// the leaf, the all-gather, two shuffles and the join in place of a walk.
	if stages != wantStages+4 {
		t.Errorf("filtered: %d stages, unfiltered %d: want four more", stages, wantStages)
	}
	// Each a->b->c with c = a+2..a+6 is one of the target's 180 pairs; only
	// c <= a+3 closes on an edge a->c.
	st, _ := c.Op(target)
	if st.Rows != int64(len(want)) || st.Note != "walked in place: edges=180 sip dropped=120" {
		t.Errorf("target wrote %d rows, note %q; want %d and the pairs it dropped", st.Rows, st.Note, len(want))
	}
	if st, _ := c.Op(closing); st.Note != "sip left(a,c) n=60" {
		t.Errorf("closing join's note %q, want sip left(a,c) n=60", st.Note)
	}
}

// TestKeySetFiltersAnExpansion runs a closing join over an expansion against
// the same plan that does not filter: with a seed set (the join variables the
// expansion's input binds) and with an end set (the path's far end alone), over
// the plain graph, where the expansion is the bulk iteration, and over the
// pinned store, where it walks the store in place. The rows are the same, the
// expansion writes fewer, and a trace counts what it dropped: input rows
// before the first hop, or paths before they are written. Over the store the
// end set is transferred back across the walk too, in a Broadcast stage of its
// own, and the input leaf's scan tests the seed set or the transfer: it counts
// the input rows it dropped, and the expansion only the paths.
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
		vars    string
		keys    int
		dropped int
	}{
		{"seed set on a", func() (*JoinEmbeddings, *ExpandEmbeddings) {
			// Three persons a and their edges a->c; the expansion starts from
			// every edge a->b and walks b->..->c.
			x := expand(NewFilterAndProjectEdges(plainKnows("e2", "a", "b")), 1)
			left := NewJoinEmbeddings(firstPersons(t, "a", 3), NewFilterAndProjectEdges(plainKnows("e1", "a", "c")), Morphism{}, nil)
			return NewJoinEmbeddings(left, x, Morphism{}, nil), x
		}, false, "a", 3, 60 - 9},
		{"end set on c", func() (*JoinEmbeddings, *ExpandEmbeddings) {
			x := expand(NewFilterAndProjectEdges(plainKnows("e2", "a", "b")), 0)
			return NewJoinEmbeddings(firstPersons(t, "c", 3), x, Morphism{}, nil), x
		}, true, "c", 3, -1},
	} {
		run := func(filter bool) (rows []embedding.Embedding, c *trace.Collector, closing *JoinEmbeddings, x *ExpandEmbeddings, stages int64) {
			closing, x = tc.plan()
			if filter {
				closing.PlaceKeySets()
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
		// An end set is followed by its transfer, which a run makes over the
		// store only.
		placed := 1
		if tc.endSet {
			placed = 2
		}
		if sets := closing.KeySets(); len(sets) != placed || sets[0].Target != x || sets[0].End() != tc.endSet ||
			tc.endSet && (sets[1].Target != x || !sets[1].transfer) {
			t.Fatalf("%s: sets %v", tc.name, sets)
		}
		if !slices.EqualFunc(bag(got), bag(want), bytes.Equal) || len(got) == 0 {
			t.Fatalf("%s: filtered: %d rows, unfiltered %d", tc.name, len(got), len(want))
		}
		// Over the store, the scan of the expansion's input tests the seed set
		// or the end set's transfer: each b that reaches c <= 3 in 0 to 2 hops.
		wantNote, sets := fmt.Sprintf("sip left(%s) n=%d", tc.vars, tc.keys), 1
		if walked && tc.endSet {
			wantNote, sets = wantNote+" sip transfer(b) n=9", 2
		}
		if st, _ := c.Op(closing); st.Note != wantNote {
			t.Errorf("%s: closing join's note %q, want %q", tc.name, st.Note, wantNote)
		}
		st, _ := c.Op(x)
		all, _ := wantC.Op(wantX)
		if strings.HasPrefix(st.Note, "walked in place: edges=") != walked {
			t.Errorf("%s: expansion's note %q", tc.name, st.Note)
		}
		var dropped int
		_, sip, _ := strings.Cut(st.Note, "sip dropped=")
		if walked && !tc.endSet {
			if leaf, _ := c.Op(x.In); sip != "" || leaf.Note != "sip scanned=60 dropped=51" || leaf.Rows != 9 {
				t.Errorf("%s: expansion's note %q, its input's %q with %d rows; want the scan to drop 51 of 60", tc.name, st.Note, leaf.Note, leaf.Rows)
			}
		} else if _, err := fmt.Sscanf(sip, "%d", &dropped); err != nil || dropped == 0 ||
			tc.dropped >= 0 && dropped != tc.dropped {
			t.Errorf("%s: expansion's note %q, want the input rows or paths it dropped (%d)", tc.name, st.Note, tc.dropped)
		}
		if st.Rows >= all.Rows {
			t.Errorf("%s: the expansion wrote %d rows, %d unfiltered", tc.name, st.Rows, all.Rows)
		}
		if tc.endSet && (st.Rows+int64(dropped) != all.Rows) != walked {
			t.Errorf("%s: %d paths written and %d dropped, %d unfiltered", tc.name, st.Rows, dropped, all.Rows)
		}
		if stages != wantStages+int64(sets) {
			t.Errorf("%s: filtered: %d stages, unfiltered %d: want an all-gather more a set", tc.name, stages, wantStages)
		}
	}
}

// TestClosingJoinLeavesNoSetBehind: once a closing join returns, its run holds
// none of the key sets it installed (Run.handOn) - an end set and its transfer
// at one expansion, the four sets of a join that runs its right input first,
// a join's set at the join below it - and a target the run evaluates again
// afterwards writes what it writes with no set, over the plain graph and over
// the pinned store.
func TestClosingJoinLeavesNoSetBehind(t *testing.T) {
	store := inplaceStore(20, 3) // 60 knows edges, a->a+1..a+3
	knows := func(name, src, tgt string) Operator { return NewFilterAndProjectEdges(plainKnows(name, src, tgt)) }
	for _, tc := range []struct {
		name string
		// plan returns the closing join and a target of its sets.
		plan func() (*JoinEmbeddings, Operator)
		// installed is how many sets the target holds while it runs, over the
		// plain graph and over the store.
		installed [2]int
	}{
		{"an end set and its transfer", func() (*JoinEmbeddings, Operator) {
			x, err := NewExpandEmbeddings(knows("e2", "a", "b"), &cypher.QueryEdge{Var: "p", Types: []string{"knows"}, Source: "b", Target: "c", MinHops: 0, MaxHops: 2},
				Morphism{}, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			return NewJoinEmbeddings(firstPersons(t, "c", 3), x, Morphism{}, nil), x
		}, [2]int{1, 2}},
		{"a join that runs its right input first", func() (*JoinEmbeddings, Operator) {
			q := mirrored(t)
			return q.root, q.onC
		}, [2]int{1, 1}},
		{"a target evaluated again", func() (*JoinEmbeddings, Operator) {
			target := NewJoinEmbeddings(knows("e2", "a", "b"), knows("e3", "b", "c"), Morphism{}, nil)
			return NewJoinEmbeddings(knows("e1", "a", "c"), target, Morphism{}, nil), target
		}, [2]int{1, 1}},
	} {
		for i, pinned := range []bool{false, true} {
			closing, target := tc.plan()
			closing.PlaceKeySets()
			env := dataflow.NewEnv(dataflow.DefaultConfig(4))
			env.Begin(nil)
			newRun := func() *Run {
				if pinned {
					return indexedRun(store.Index(env))
				}
				return plainRun(dataflow.FromSlice(env, store.Vertices), dataflow.FromSlice(env, store.Edges))
			}
			want := target.Evaluate(newRun()).Collect()
			r := newRun()
			installed := -1
			r.Observe(func(op Operator, _ *dataflow.Dataset[embedding.Embedding]) {
				if op == target {
					installed = len(r.filters[target])
				}
			})
			closing.Evaluate(r)
			r.Observe(nil)
			left := len(r.filters)
			got := target.Evaluate(r).Collect()
			if err := env.Finish(); err != nil {
				t.Fatal(err)
			}
			if installed != tc.installed[i] || left != 0 {
				t.Errorf("%s, pinned %v: the target held %d sets while it ran, want %d; %d targets hold sets after the join",
					tc.name, pinned, installed, tc.installed[i], left)
			}
			if len(want) == 0 || !slices.EqualFunc(bag(got), bag(want), bytes.Equal) {
				t.Errorf("%s, pinned %v: the target wrote %d rows after the join, %d in a run of its own", tc.name, pinned, len(got), len(want))
			}
		}
	}
}
