package operators

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"gradoop/internal/cypher"
	"gradoop/internal/dataflow"
	"gradoop/internal/embedding"
	"gradoop/internal/epgm"
	"gradoop/internal/trace"
)

// TestKeySetFiltersTheLeaf gives joins a key set of the persons c with n <= 3
// and runs them over the plain graph and the pinned store. A set is tested in
// the scans of the input leaves that bind c: the rows are the ones the same
// set tested at the join's pairs gives, and the ones of the unfiltered join
// whose c has n <= 3; a scan builds a row for no element it drops; and a leaf
// shared by two consumers that test the set and one that reads it whole is
// built whole once, whichever runs first.
func TestKeySetFiltersTheLeaf(t *testing.T) {
	store := inplaceStore(20, 3) // 60 knows edges, a->a+1..a+3: three in and three out a person
	for _, pinned := range []bool{false, true} {
		t.Run(fmt.Sprintf("pinned=%v", pinned), func(t *testing.T) { checkKeySetFiltersTheLeaf(t, store, pinned) })
	}
}

// leafSetPlan is three joins that take a set of c and one that reads the
// shared knows leaf whole: the leaf's 60 edges, each followed by the three
// that leave its target.
type leafSetPlan struct {
	both, intoB, fromC, whole *JoinEmbeddings
	knows                     *Cached
	aliases                   [2]*Alias
}

func newLeafSetPlan() leafSetPlan {
	person := func(v string) Operator {
		return NewFilterAndProjectVertices(&cypher.QueryVertex{Var: v, Labels: []string{"Person"}})
	}
	var p leafSetPlan
	p.knows = NewCached(NewFilterAndProjectEdges(plainKnows("e", "x", "y")))
	p.aliases[0] = NewAlias(p.knows, map[string]string{"x": "b", "y": "c", "e": "e2"})
	p.aliases[1] = NewAlias(p.knows, map[string]string{"x": "c", "y": "d", "e": "e3"})
	// Both inputs bind c: both scans test the set.
	p.both = NewJoinEmbeddings(person("c"), NewFilterAndProjectEdges(plainKnows("e1", "b", "c")), Morphism{}, nil)
	// Only the alias binds c: its scan tests the set, and over the store the
	// person leaf is looked up by the ids of the rows it keeps.
	p.intoB = NewJoinEmbeddings(person("b"), p.aliases[0], Morphism{}, nil)
	p.fromC = NewJoinEmbeddings(p.aliases[1], person("d"), Morphism{}, nil)
	// The shared leaf's other consumer reads it whole: over the store it is
	// the input the join walks another knows leaf from.
	p.whole = NewJoinEmbeddings(p.knows, NewFilterAndProjectEdges(plainKnows("f", "y", "z")), Morphism{}, nil)
	return p
}

func checkKeySetFiltersTheLeaf(t *testing.T, store *epgm.Store, pinned bool) {
	newRun := func(env *dataflow.Env) *Run {
		if pinned {
			return indexedRun(store.Index(env))
		}
		return plainRun(dataflow.FromSlice(env, store.Vertices), dataflow.FromSlice(env, store.Edges))
	}
	newEnv := func() (*dataflow.Env, *trace.Collector) {
		env := dataflow.NewEnv(dataflow.DefaultConfig(4))
		c := trace.NewCollector()
		env.SetTracer(c)
		env.Begin(nil)
		return env, c
	}
	// The set and, per target, the filter a run installs for it.
	env, _ := newEnv()
	src := firstPersons(t, "c", 3)
	set := dataflow.Keys(src.Evaluate(newRun(env)), keysAt([]int{0}))
	filterAt := func(target Operator) made {
		s, ok := newKeySet(src, target, []string{"c"})
		if !ok {
			t.Fatalf("no set of c at %s", target.Description())
		}
		return made{KeySet: &s, set: set}
	}
	inSet := func(e embedding.Embedding, meta *embedding.Meta) bool {
		c, _ := meta.Column("c")
		return e.ID(c) <= 3 // the persons are 1..20, in n's order
	}

	p := newLeafSetPlan()
	targets := []*JoinEmbeddings{p.both, p.intoB, p.fromC}
	for _, target := range targets {
		// The truth: the unfiltered join's rows whose c is in the set.
		var want []embedding.Embedding
		for _, e := range target.Evaluate(newRun(env)).Collect() {
			if inSet(e, target.Meta()) {
				want = append(want, e)
			}
		}
		// The set tested at the pairs.
		r := newRun(env)
		atPairs := target.join(r, target.Left.Evaluate(r), target.Right.Evaluate(r), (*keyTest)(nil).add(set, filterAt(target).targetCols, true)).Collect()
		// The set tested where the run puts it.
		r = newRun(env)
		r.filters = map[Operator][]made{target: {filterAt(target)}}
		got := target.Evaluate(r).Collect()
		if len(want) == 0 || !slices.EqualFunc(bag(got), bag(want), bytes.Equal) || !slices.EqualFunc(bag(atPairs), bag(want), bytes.Equal) {
			t.Errorf("%s: %d rows with the set in the scans, %d with it at the pairs, want %d",
				target.Description(), len(got), len(atPairs), len(want))
		}
	}
	if err := env.Finish(); err != nil {
		t.Fatal(err)
	}

	// A scan builds the rows of the elements it keeps, and no other: what the
	// lanes' slabs carve for them is what the whole scan carves for as many.
	env, _ = newEnv()
	r := newRun(env)
	edges := NewFilterAndProjectEdges(plainKnows("e1", "b", "c"))
	_, c0 := laneUsage(t, env)
	all := edges.Evaluate(r).Count()
	_, c1 := laneUsage(t, env)
	test := (*keyTest)(nil).add(set, []pairCol{{col: 2}}, true)
	kept := edges.scan(r, test).Count()
	_, c2 := laneUsage(t, env)
	if all != 60 || kept != 9 || test.read != 60 || test.dropped.Load() != 51 || (c2-c1)*int(all) != (c1-c0)*int(kept) {
		t.Errorf("the scan kept %d of %d edges, read %d, dropped %d, carved %d bytes for them and %d for all %d",
			kept, all, test.read, test.dropped.Load(), c2-c1, c1-c0, all)
	}
	if err := env.Finish(); err != nil {
		t.Fatal(err)
	}

	// The shared leaf, its two testing consumers first and last.
	for _, wholeFirst := range []bool{false, true} {
		p := newLeafSetPlan()
		env, c := newEnv()
		r := newRun(env)
		r.filters = map[Operator][]made{p.intoB: {filterAt(p.intoB)}, p.fromC: {filterAt(p.fromC)}}
		observed := map[Operator][]int64{}
		r.Observe(func(op Operator, out *dataflow.Dataset[embedding.Embedding]) {
			observed[op] = append(observed[op], out.Count())
		})
		order := []*JoinEmbeddings{p.intoB, p.fromC, p.whole}
		if wholeFirst {
			order = []*JoinEmbeddings{p.whole, p.intoB, p.fromC}
		}
		rows := map[*JoinEmbeddings]int64{}
		for _, j := range order {
			rows[j] = j.Evaluate(r).Count()
		}
		if err := env.Finish(); err != nil {
			t.Fatal(err)
		}
		leaf := p.knows.Inner
		if !slices.Equal(observed[leaf], []int64{60}) || rows[p.intoB] != 9 || rows[p.fromC] != 9 || rows[p.whole] != 180 {
			t.Errorf("whole first %v: the shared leaf built %v rows, the joins wrote %d, %d and %d rows, want 60 once and 9, 9 and 180",
				wholeFirst, observed[leaf], rows[p.intoB], rows[p.fromC], rows[p.whole])
		}
		// Over the store, the person leaf is looked up by the ids of the other
		// input's rows: the 9 the scan kept or, if the run held the shared
		// leaf, all 60, whose pairs test the set.
		wantNote := ""
		switch {
		case pinned && wholeFirst:
			wantNote = "looked up in place: vertices=60 sip dropped=51"
		case wholeFirst:
			wantNote = "sip dropped=51"
		case pinned:
			wantNote = "looked up in place: vertices=9"
		}
		if st, _ := c.Op(p.intoB); st.Note != wantNote {
			t.Errorf("whole first %v: %s noted %q, want %q", wholeFirst, p.intoB.Description(), st.Note, wantNote)
		}
		for _, a := range p.aliases {
			// A consumer that runs after the leaf was built reads its rows and
			// tests the set at its pairs; one that runs before scans for itself,
			// traced under its alias.
			st, traced := c.Op(a)
			want := []int64{9}
			if wholeFirst {
				want = nil
			}
			if !slices.Equal(observed[a], want) || traced != !wholeFirst ||
				traced && (st.Rows != 9 || st.Note != "sip scanned=60 dropped=51") {
				t.Errorf("whole first %v: %s scanned %v rows, traced %v with %d rows, note %q",
					wholeFirst, a.Description(), observed[a], traced, st.Rows, st.Note)
			}
		}
	}
}
