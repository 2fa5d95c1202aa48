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
	"gradoop/internal/epgm"
	"gradoop/internal/trace"
)

// crossGraph is twelve vertices, n their id, and the edges an end set of the
// persons 1 and 2 is transferred across: a triangle 1->3->4->1 that returns
// to 1, a chain 9->8->7->6->5->1 into it, 2 a sink that only 11 knows, a loop
// 12->12, likes edges 10->2, 8->5 and 12->11, and a knows edge 77->5 from a
// vertex the graph does not hold. 10 and 12 are robots, the rest persons. A
// knows edge has a weight w, which the predicate p.w < 2 reads: it cuts 6->5
// and 3->12.
func crossGraph() *epgm.Store {
	vs := make([]epgm.Vertex, 12)
	for i := range vs {
		label := "Person"
		if i+1 == 10 || i+1 == 12 {
			label = "Robot"
		}
		vs[i] = epgm.Vertex{ID: epgm.ID(1 + i), Label: label, Properties: epgm.Properties{}.Set("n", epgm.PVInt(int64(1+i)))}
	}
	var es []epgm.Edge
	edge := func(label string, s, t epgm.ID, w int64) {
		e := epgm.Edge{ID: epgm.ID(100 + len(es)), Label: label, Source: s, Target: t}
		if label == "knows" {
			e.Properties = epgm.Properties{}.Set("w", epgm.PVInt(w))
		}
		es = append(es, e)
	}
	for _, k := range [][3]int64{
		{1, 3, 0}, {3, 4, 1}, {4, 1, 0},
		{9, 8, 1}, {8, 7, 0}, {7, 6, 0}, {6, 5, 2}, {5, 1, 1},
		{11, 2, 0}, {3, 12, 2}, {12, 12, 0}, {77, 5, 0},
	} {
		edge("knows", epgm.ID(k[0]), epgm.ID(k[1]), k[2])
	}
	for _, l := range [][2]epgm.ID{{10, 2}, {8, 5}, {12, 11}} {
		edge("likes", l[0], l[1], 0)
	}
	return epgm.NewStore(epgm.GraphFromSlices(dataflow.NewEnv(dataflow.DefaultConfig(1)), "", vs, es))
}

// crossEnd is the end set's source: the persons 1 and 2, as c.
const crossEnd = 2

// reachBack is the transfer worked out level by level over the edge list: the
// vertices from which a walk of minHops to maxHops edges of qe's types that
// pass pass, in the expansion's direction, ends at one of the vertices ends.
func reachBack(store *epgm.Store, ends []epgm.ID, qe *cypher.QueryEdge, reverse bool, pass func(epgm.Edge) bool) map[epgm.ID]bool {
	level := map[epgm.ID]bool{}
	for _, id := range ends {
		level[id] = true
	}
	out := map[epgm.ID]bool{}
	for hops := 0; hops <= qe.MaxHops; hops++ {
		if hops >= qe.MinHops {
			for v := range level {
				out[v] = true
			}
		}
		next := map[epgm.ID]bool{}
		for _, e := range store.Edges {
			if len(qe.Types) > 0 && !slices.Contains(qe.Types, e.Label) || !pass(e) {
				continue
			}
			from, to := e.Source, e.Target // a hop of the expansion
			if reverse {
				from, to = to, from
			}
			if level[to] {
				next[from] = true
			}
			if qe.Undirected && level[from] {
				next[to] = true
			}
		}
		level = next
	}
	return out
}

// TestEndSetCrossesTheWalk gives an expansion an end set of the persons 1 and
// 2 (a closing join over it, whose left input is those persons as c) and runs
// it over the pinned store, where the set is transferred back across the walk,
// against the same plan with the set tested only at the paths' far ends and
// against the plain graph: forward, reverse and undirected; *0..k, *1..k and
// *2..k; a type alternation, an edge predicate and a cycle back to the start;
// over a vertex leaf, bare, behind a Cached or held by the run already, and
// over a join; under vertex and edge homomorphism and isomorphism. The rows
// are the same each time. The transferred set is the vertices reachBack finds
// - over a Person leaf the persons among them, as no robot starts a row - a
// leaf's scan tests it and builds the rows of those alone, and the rows of a
// join or of a leaf the run holds are tested as the walk reads them.
func TestEndSetCrossesTheWalk(t *testing.T) {
	store := crossGraph()
	where, err := cypher.Parse("MATCH (a)-[p]->(b) WHERE p.w < 2 RETURN *")
	if err != nil {
		t.Fatal(err)
	}
	light := func(e epgm.Edge) bool { return e.Properties.Get("w").Int() < 2 }
	person := func(v string) *FilterAndProjectVertices {
		return NewFilterAndProjectVertices(&cypher.QueryVertex{Var: v, Labels: []string{"Person"}})
	}
	type input int
	const (
		bare input = iota
		cached
		held // a Cached the run evaluated before
		join
	)
	for _, tc := range []struct {
		name       string
		types      []string
		min, max   int
		reverse    bool
		undirected bool
		predicate  bool
		in         input
	}{
		{name: "forward *1..3", types: []string{"knows"}, min: 1, max: 3},
		{name: "reverse *1..3", types: []string{"knows"}, min: 1, max: 3, reverse: true},
		{name: "undirected *1..2", types: []string{"knows"}, min: 1, max: 2, undirected: true},
		{name: "forward *0..3", types: []string{"knows"}, min: 0, max: 3},
		{name: "reverse *0..2", types: []string{"knows"}, min: 0, max: 2, reverse: true},
		{name: "forward *2..4", types: []string{"knows"}, min: 2, max: 4},
		{name: "knows|likes *1..3", types: []string{"knows", "likes"}, min: 1, max: 3, in: cached},
		{name: "reverse knows|likes *2..3", types: []string{"knows", "likes"}, min: 2, max: 3, reverse: true},
		{name: "a held leaf, reverse *1..3", types: []string{"knows"}, min: 1, max: 3, reverse: true, in: held},
		{name: "p.w < 2 *1..5", types: []string{"knows"}, min: 1, max: 5, predicate: true},
		{name: "a cycle back to the start *3..3", types: []string{"knows"}, min: 3, max: 3},
		{name: "a join's rows *0..3", types: []string{"knows"}, min: 0, max: 3, in: join},
		{name: "a join's rows, undirected *1..2", types: []string{"knows", "likes"}, min: 1, max: 2, undirected: true, in: join},
	} {
		qe := &cypher.QueryEdge{Var: "p", Types: tc.types, Source: "b", Target: "c", MinHops: tc.min, MaxHops: tc.max, Undirected: tc.undirected}
		if tc.reverse {
			qe.Source, qe.Target = "c", "b"
		}
		pass := func(epgm.Edge) bool { return true }
		if tc.predicate {
			qe.Predicates, pass = []cypher.Expr{where.Where}, light
		}
		want := reachBack(store, []epgm.ID{1, 2}, qe, tc.reverse, pass)
		if tc.in != join {
			for v := range want {
				if v == 10 || v == 12 || v == 77 { // robots and a vertex the graph does not hold
					delete(want, v)
				}
			}
		}
		for _, morph := range []Morphism{{Vertex: Homomorphism, Edge: Homomorphism}, {Vertex: Isomorphism, Edge: Isomorphism}} {
			t.Run(fmt.Sprintf("%s/iso=%v", tc.name, morph.Vertex == Isomorphism), func(t *testing.T) {
				plan := func() (*JoinEmbeddings, *ExpandEmbeddings) {
					var in Operator = person("b")
					switch tc.in {
					case cached, held:
						in = NewCached(in)
					case join:
						in = NewJoinEmbeddings(person("b"), NewFilterAndProjectEdges(plainKnows("e", "a", "b")), morph, nil)
					}
					x, err := NewExpandEmbeddings(in, qe, morph, tc.reverse, nil)
					if err != nil {
						t.Fatal(err)
					}
					return NewJoinEmbeddings(firstPersons(t, "c", crossEnd), x, morph, nil), x
				}
				run := func(pinned, sets, transfer bool) ([]embedding.Embedding, *trace.Collector, *JoinEmbeddings, *ExpandEmbeddings) {
					closing, x := plan()
					if sets {
						closing.PlaceKeySets()
						if !transfer {
							closing.sets = closing.sets[:1]
						}
					}
					env := dataflow.NewEnv(dataflow.DefaultConfig(4))
					c := trace.NewCollector()
					env.SetTracer(c)
					env.Begin(nil)
					r := plainRun(dataflow.FromSlice(env, store.Vertices), dataflow.FromSlice(env, store.Edges))
					if pinned {
						r = indexedRun(store.Index(env))
					}
					if tc.in == held {
						x.In.Evaluate(r)
					}
					rows := closing.Evaluate(r).Collect()
					if err := env.Finish(); err != nil {
						t.Fatal(err)
					}
					return rows, c, closing, x
				}
				truth, _, _, _ := run(false, false, false)
				plain, _, _, _ := run(false, true, true)
				atEnds, _, _, _ := run(true, true, false)
				got, c, closing, x := run(true, true, true)
				if len(truth) == 0 {
					t.Fatal("no rows to keep")
				}
				for name, rows := range map[string][]embedding.Embedding{"over the plain graph": plain, "tested at the far ends": atEnds, "transferred": got} {
					if !slices.EqualFunc(bag(rows), bag(truth), bytes.Equal) {
						t.Errorf("%s: %d rows, unfiltered %d", name, len(rows), len(truth))
					}
				}
				if st, _ := c.Op(closing); st.Note != fmt.Sprintf("sip left(c) n=%d sip transfer(b) n=%d", crossEnd, len(want)) {
					t.Errorf("closing join's note %q, want the transfer to reach %d vertices", st.Note, len(want))
				}
				// A leaf's scan keeps the persons in the set and builds their rows
				// alone; a join's rows, and those of a leaf the run holds, reach
				// the walk, which tests them.
				st, _ := c.Op(x.In)
				scanned := fmt.Sprintf("sip scanned=10 dropped=%d", 10-len(want))
				switch tc.in {
				case join, held:
					if strings.Contains(st.Note, "sip scanned=") {
						t.Errorf("the input noted %q", st.Note)
					}
				default:
					if st.Note != scanned || st.Rows != int64(len(want)) {
						t.Errorf("the leaf's scan noted %q and built %d rows, want %q and %d", st.Note, st.Rows, scanned, len(want))
					}
				}
			})
		}
		if tc.in != bare {
			continue
		}
		// No row is carved for a dropped element: what the lanes' slabs carve
		// for the scan that tests the transfer is what the whole scan carves
		// for as many rows.
		x, err := NewExpandEmbeddings(person("b"), qe, Morphism{}, tc.reverse, nil)
		if err != nil {
			t.Fatal(err)
		}
		env := dataflow.NewEnv(dataflow.DefaultConfig(4))
		env.Begin(nil)
		r := indexedRun(store.Index(env))
		set, _ := r.transfer(x, firstPersons(t, "c", crossEnd).Evaluate(r), 0, nil)
		test := (*keyTest)(nil).add(set, []pairCol{{col: 0}}, false)
		leaf := x.In.(*FilterAndProjectVertices)
		_, c0 := laneUsage(t, env)
		all := leaf.Evaluate(r).Count()
		_, c1 := laneUsage(t, env)
		kept := leaf.scan(r, test).Count()
		_, c2 := laneUsage(t, env)
		if err := env.Finish(); err != nil {
			t.Fatal(err)
		}
		if all != 10 || kept != int64(len(want)) || (c2-c1)*int(all) != (c1-c0)*int(kept) {
			t.Errorf("%s: the scan kept %d of %d persons, want %d; carved %d bytes for them and %d for all",
				tc.name, kept, all, len(want), c2-c1, c1-c0)
		}
	}
}

// TestTransferReachesWhatTheWalksReach holds the transferred set itself to
// reachBack, for an input that is no vertex leaf - so no vertex is left out
// for its label, robots and the vertex 77 the graph does not hold included -
// at a hop bound that fits the partitions' memo of a byte a vertex and at one
// that does not.
func TestTransferReachesWhatTheWalksReach(t *testing.T) {
	store := crossGraph()
	for _, maxHops := range []int{5, 300} {
		for _, reverse := range []bool{false, true} {
			qe := &cypher.QueryEdge{Var: "p", Types: []string{"knows", "likes"}, Source: "b", Target: "c", MinHops: 0, MaxHops: maxHops}
			if reverse {
				qe.Source, qe.Target = "c", "b"
			}
			in := NewJoinEmbeddings(NewFilterAndProjectVertices(&cypher.QueryVertex{Var: "b"}),
				NewFilterAndProjectEdges(plainKnows("e", "a", "b")), Morphism{}, nil)
			x, err := NewExpandEmbeddings(in, qe, Morphism{}, reverse, nil)
			if err != nil {
				t.Fatal(err)
			}
			env := dataflow.NewEnv(dataflow.DefaultConfig(4))
			env.Begin(nil)
			r := indexedRun(store.Index(env))
			set, _ := r.transfer(x, firstPersons(t, "c", crossEnd).Evaluate(r), 0, nil)
			if err := env.Finish(); err != nil {
				t.Fatal(err)
			}
			want := reachBack(store, []epgm.ID{1, 2}, qe, reverse, func(epgm.Edge) bool { return true })
			if set.Len() != len(want) || want[77] == reverse {
				t.Errorf("*0..%d reverse %v: %d vertices reached, want %d (77 among them: %v)", maxHops, reverse, set.Len(), len(want), want[77])
			}
			for _, v := range []epgm.ID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 77} {
				if set.Has(mixKey(keySeed, v)) != want[v] {
					t.Errorf("*0..%d reverse %v: vertex %d in the set %v, want %v", maxHops, reverse, v, !want[v], want[v])
				}
			}
		}
	}
}

// TestWalkGoesOnlyWhereAnEndIs: past its first hop an expansion over the store
// goes on from a vertex only if its end set's transfer reached it in the hops
// a path has left. A post 1 and the comments 2 to 9 reply to it in three
// branches - 2<-3<-4, 5<-6<-8<-9 and 7 - and the closing join's end set is
// comment 4: walked from the post, reversed, *0..10, the expansion reads the
// post's three replies and the two below 2 and goes into no other branch, five
// edges of eight. Tested at the far ends alone, it reads all eight; the rows
// are the same.
func TestWalkGoesOnlyWhereAnEndIs(t *testing.T) {
	vs := []epgm.Vertex{{ID: 1, Label: "Post", Properties: epgm.Properties{}.Set("n", epgm.PVInt(1))}}
	for i := 2; i <= 9; i++ {
		vs = append(vs, epgm.Vertex{ID: epgm.ID(i), Label: "Comment", Properties: epgm.Properties{}.Set("n", epgm.PVInt(int64(i)))})
	}
	var es []epgm.Edge
	for _, r := range [][2]epgm.ID{{2, 1}, {3, 2}, {4, 3}, {5, 1}, {6, 5}, {8, 6}, {9, 8}, {7, 1}} {
		es = append(es, epgm.Edge{ID: epgm.ID(100 + len(es)), Label: "replyOf", Source: r[0], Target: r[1]})
	}
	store := epgm.NewStore(epgm.GraphFromSlices(dataflow.NewEnv(dataflow.DefaultConfig(1)), "", vs, es))
	q, err := cypher.Parse("MATCH (c) WHERE c.n = 4 RETURN *")
	if err != nil {
		t.Fatal(err)
	}
	run := func(transfer bool) ([][]byte, string) {
		end := NewFilterAndProjectVertices(&cypher.QueryVertex{Var: "c", Labels: []string{"Comment"}, Predicates: []cypher.Expr{q.Where}})
		post := NewFilterAndProjectVertices(&cypher.QueryVertex{Var: "b", Labels: []string{"Post"}})
		x, err := NewExpandEmbeddings(post, &cypher.QueryEdge{Var: "p", Types: []string{"replyOf"}, Source: "c", Target: "b", MinHops: 0, MaxHops: 10},
			Morphism{Vertex: Homomorphism, Edge: Isomorphism}, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		closing := NewJoinEmbeddings(end, x, Morphism{Vertex: Homomorphism, Edge: Isomorphism}, nil)
		closing.PlaceKeySets()
		if !transfer {
			closing.sets = closing.sets[:1]
		}
		env := dataflow.NewEnv(dataflow.DefaultConfig(4))
		c := trace.NewCollector()
		env.SetTracer(c)
		env.Begin(nil)
		rows := closing.Evaluate(indexedRun(store.Index(env))).Collect()
		if err := env.Finish(); err != nil {
			t.Fatal(err)
		}
		st, _ := c.Op(x)
		return bag(rows), st.Note
	}
	want, atEnds := run(false)
	got, note := run(true)
	if len(want) != 1 || !slices.EqualFunc(got, want, bytes.Equal) {
		t.Errorf("%d rows with the transfer, %d with the end set alone, want 1", len(got), len(want))
	}
	if !strings.HasPrefix(atEnds, "walked in place: edges=8 ") || !strings.HasPrefix(note, "walked in place: edges=5 ") {
		t.Errorf("the expansion notes %q with the transfer and %q with the end set alone, want 5 edges and 8", note, atEnds)
	}
}

// TestVertexOfKeyUndoesTheKey: a vertex's key in a set of one vertex variable
// names the vertex, for ids of every size.
func TestVertexOfKeyUndoesTheKey(t *testing.T) {
	ids := []epgm.ID{0, 1, 2, 77, 1 << 31, 1<<63 - 1, 1 << 63, ^epgm.ID(0), epgm.NewID(), epgm.NewID()}
	for _, id := range ids {
		if got := vertexOfKey(mixKey(keySeed, id)); got != id {
			t.Errorf("the key of %d names %d", id, got)
		}
	}
}
