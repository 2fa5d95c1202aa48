package operators

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"

	"gradoop/internal/cypher"
	"gradoop/internal/dataflow"
	"gradoop/internal/epgm"
	"gradoop/internal/trace"
)

// walkStore is a pinned graph of twelve persons with a property n, a knows
// ring of two edges a person (i->i+1, i->i+2), a parallel edge 1->2, a loop
// 3->3 and a two-cycle 5<->6 among them, and likes edges i->i+3 with a loop
// 4->4. Every edge has a property w of 0, 1 or 2.
func walkStore() *epgm.Store {
	const persons = 12
	vs := make([]epgm.Vertex, persons)
	for i := range vs {
		vs[i] = epgm.Vertex{ID: epgm.ID(1 + i), Label: "Person", Properties: epgm.Properties{}.Set("n", epgm.PVInt(int64(1+i)))}
	}
	var es []epgm.Edge
	edge := func(label string, s, t int) {
		es = append(es, epgm.Edge{ID: epgm.ID(1000 + len(es)), Label: label, Source: epgm.ID(s), Target: epgm.ID(t),
			Properties: epgm.Properties{}.Set("w", epgm.PVInt(int64(len(es)%3)))})
	}
	for i := 1; i <= persons; i++ {
		edge("knows", i, 1+i%persons)
		edge("knows", i, 1+(i+1)%persons)
		edge("likes", i, 1+(i+2)%persons)
	}
	edge("knows", 1, 2)
	edge("knows", 3, 3)
	edge("knows", 6, 5)
	edge("likes", 4, 4)
	return epgm.NewStore(epgm.GraphFromSlices(dataflow.NewEnv(dataflow.DefaultConfig(1)), "", vs, es))
}

// walkEdge is a leaf of a query edge src-[v:types]->tgt whose rows carry w,
// with the predicate where if it is not empty.
func walkEdge(t testing.TB, v, src, tgt string, types []string, where string) *FilterAndProjectEdges {
	t.Helper()
	qe := &cypher.QueryEdge{Var: v, Types: types, Source: src, Target: tgt, MinHops: 1, MaxHops: 1, Projection: []string{"w"}}
	if where != "" {
		q, err := cypher.Parse(fmt.Sprintf("MATCH ()-[%s]->() WHERE %s RETURN *", v, where))
		if err != nil {
			t.Fatal(err)
		}
		qe.Predicates = []cypher.Expr{q.Where}
	}
	return NewFilterAndProjectEdges(qe)
}

// walkCase is a plan whose join reads a leaf where the store holds it - walks
// an edge leaf or looks a vertex leaf up: join is that join, root what runs,
// and prepare, if set, readies a run - installs a key set, evaluates a
// consumer first - before root runs. walks says whether the join must read the
// leaf in place over the store, scanSet whether the leaf's scan would test a
// key set.
type walkCase struct {
	name           string
	root           Operator
	join           *JoinEmbeddings
	walks, scanSet bool
	prepare        func(t *testing.T, r *Run)
}

// inPlaceInput is the input a join that reads a leaf in place reads so: an
// edge leaf on either side first, then a vertex leaf, each the right one
// first (JoinEmbeddings.walked).
func inPlaceInput(j *JoinEmbeddings) Operator {
	if w := j.walks; w[1].leaf == nil || !w[1].edges() && w[0].edges() {
		return j.Left
	}
	return j.Right
}

func walkCases(t *testing.T, morph Morphism) []walkCase {
	knows := []string{"knows"}
	person := func(v string) Operator {
		return NewFilterAndProjectVertices(&cypher.QueryVertex{Var: v, Labels: []string{"Person"}, Projection: []string{"n"}})
	}
	var cases []walkCase
	add := func(name string, j *JoinEmbeddings) {
		cases = append(cases, walkCase{name: name, root: j, join: j, walks: true})
	}
	add("by-source", NewJoinEmbeddings(firstPersons(t, "a", 5), walkEdge(t, "e", "a", "b", knows, ""), morph, nil))
	add("by-target", NewJoinEmbeddings(firstPersons(t, "b", 5), walkEdge(t, "e", "a", "b", knows, ""), morph, nil))
	add("by-source-leaf-left", NewJoinEmbeddings(walkEdge(t, "e", "a", "b", knows, ""), firstPersons(t, "a", 5), morph, nil))
	add("by-target-leaf-left", NewJoinEmbeddings(walkEdge(t, "e", "a", "b", knows, ""), firstPersons(t, "b", 5), morph, nil))
	// The other input binds both ends: the walk closes on the far one. Its
	// input is a walk too, by the target, and a vertex twice over.
	two := NewJoinEmbeddings(person("a"), walkEdge(t, "f", "b", "a", knows, ""), morph, nil)
	add("by-both", NewJoinEmbeddings(two, walkEdge(t, "e", "a", "b", knows, ""), morph, nil))
	add("by-both-leaf-left", NewJoinEmbeddings(walkEdge(t, "e", "a", "b", knows, "e.w < 2"), two, morph, nil))
	add("edge-predicate", NewJoinEmbeddings(firstPersons(t, "a", 8), walkEdge(t, "e", "a", "b", knows, "e.w > 0"), morph, nil))
	add("type-alternation", NewJoinEmbeddings(firstPersons(t, "b", 6), walkEdge(t, "e", "a", "b", []string{"knows", "likes"}, ""), morph, nil))
	// Edge isomorphism between the walked edge and the other input's: a
	// path of two knows edges from the same leaf's two aliases.
	path := NewCached(walkEdge(t, "x", "s", "t", knows, ""))
	first := NewAlias(path, map[string]string{"x": "e1", "s": "a", "t": "b"})
	second := NewAlias(path, map[string]string{"x": "e2", "s": "b", "t": "c"})
	add("alias-of-shared-leaf", NewJoinEmbeddings(NewJoinEmbeddings(firstPersons(t, "a", 4), first, morph, nil), second, morph, nil))

	// The same join, with the shared leaf held by the run - a consumer that
	// reads it whole ran first - joins by hash.
	held := NewCached(walkEdge(t, "x", "s", "t", knows, ""))
	whole := NewAlias(held, map[string]string{"x": "e0", "s": "a", "t": "b"})
	heldJoin := NewJoinEmbeddings(firstPersons(t, "a", 4), NewAlias(held, map[string]string{"x": "e1", "s": "a", "t": "b"}), morph, nil)
	cases = append(cases, walkCase{name: "held-shared-leaf", root: heldJoin, join: heldJoin,
		prepare: func(t *testing.T, r *Run) { whole.Evaluate(r) }})

	// A join that receives a set of b at its pairs - the persons n <= 4 -
	// tests it in the walk over the store and in the leaf's scan over the
	// plain graph.
	set := NewJoinEmbeddings(firstPersons(t, "a", 9), walkEdge(t, "e", "a", "b", knows, ""), morph, nil)
	cases = append(cases, walkCase{name: "pair-set", root: set, join: set, walks: true, prepare: func(t *testing.T, r *Run) {
		src := firstPersons(t, "b", 4)
		s, ok := newKeySet(src, set, []string{"b"})
		if !ok {
			t.Fatal("no set of b at the join")
		}
		r.filters = map[Operator][]made{set: {{KeySet: &s, set: dataflow.Keys(src.Evaluate(r), keysAt([]int{0}))}}}
	}})

	// A set whose target lets its input leaves' scans test it: the edge
	// leaf's scan would test it, so the leaf is walked only beside a small
	// input - one with a predicate, or one whose own scan tests a set - and
	// the walk tests it on every edge it reads. Over the plain graph both
	// scans test it.
	scanSet := func(name string, j *JoinEmbeddings, v string, walks bool) {
		cases = append(cases, walkCase{name: name, root: j, join: j, walks: walks, scanSet: true, prepare: func(t *testing.T, r *Run) {
			src := firstPersons(t, v, 4)
			s, ok := newKeySet(src, j, []string{v})
			if !ok || s.scans[1] == nil {
				t.Fatalf("no set of %s the right leaf's scan tests", v)
			}
			r.filters = map[Operator][]made{j: {{KeySet: &s, set: dataflow.Keys(src.Evaluate(r), keysAt([]int{0}))}}}
		}})
	}
	scanSet("scan-set-both-scans", NewJoinEmbeddings(person("a"), walkEdge(t, "e", "a", "b", knows, ""), morph, nil), "a", true)
	shared := NewCached(walkEdge(t, "x", "s", "t", knows, "")) // an Alias's: the join does not test at its pairs
	scanSet("scan-set-beside-selective", NewJoinEmbeddings(firstPersons(t, "a", 9), NewAlias(shared, map[string]string{"x": "e", "s": "a", "t": "b"}), morph, nil), "b", true)
	scanSet("scan-set-beside-all", NewJoinEmbeddings(person("a"), NewAlias(shared, map[string]string{"x": "e1", "s": "a", "t": "b"}), morph, nil), "b", false)

	// A vertex leaf is looked up by the id the other input binds: here the
	// persons a walk from the persons n <= 5 reaches, on either side, bare,
	// behind a Cached, behind an Alias of a shared leaf, with a predicate of
	// its own and without a label.
	reached := func() *JoinEmbeddings {
		return NewJoinEmbeddings(firstPersons(t, "a", 5), walkEdge(t, "e", "a", "b", knows, ""), morph, nil)
	}
	add("lookup-right", NewJoinEmbeddings(reached(), person("b"), morph, nil))
	add("lookup-left", NewJoinEmbeddings(person("b"), reached(), morph, nil))
	add("lookup-cached", NewJoinEmbeddings(reached(), NewCached(person("b")), morph, nil))
	persons := NewCached(person("x"))
	add("lookup-alias", NewJoinEmbeddings(reached(), NewAlias(persons, map[string]string{"x": "b"}), morph, nil))
	add("lookup-predicate", NewJoinEmbeddings(reached(), firstPersons(t, "b", 4), morph, nil))
	add("lookup-unlabeled", NewJoinEmbeddings(reached(), NewFilterAndProjectVertices(&cypher.QueryVertex{Var: "b", Projection: []string{"n"}}), morph, nil))
	// Held by the run - a consumer that reads the shared leaf whole ran
	// first - it is hashed.
	heldPersons := NewCached(person("x"))
	wholePersons := NewAlias(heldPersons, map[string]string{"x": "c"})
	heldLookup := NewJoinEmbeddings(reached(), NewAlias(heldPersons, map[string]string{"x": "b"}), morph, nil)
	cases = append(cases, walkCase{name: "lookup-held", root: heldLookup, join: heldLookup,
		prepare: func(t *testing.T, r *Run) { wholePersons.Evaluate(r) }})
	// A set of b the vertex leaf's scan would test - the leaf is an Alias's,
	// so the join does not test at its pairs - is tested on every vertex the
	// lookup reads beside a selective input, and in the scan beside one that
	// is not.
	scanSet("lookup-scan-set-beside-selective", NewJoinEmbeddings(reached(), NewAlias(persons, map[string]string{"x": "b"}), morph, nil), "b", true)
	everyone := NewJoinEmbeddings(person("a"), walkEdge(t, "e", "a", "b", knows, ""), morph, nil)
	scanSet("lookup-scan-set-beside-all", NewJoinEmbeddings(everyone, NewAlias(persons, map[string]string{"x": "b"}), morph, nil), "b", false)
	return cases
}

// TestWalkedJoinIsInvisible: over a pinned store a join whose input is an
// edge leaf the other input binds an end of walks the store's adjacency, and
// one whose input is a vertex leaf looks it up by id, instead of running the
// leaf (DESIGN decision 46). For edges by their source, their target and
// both, the leaf on either side, an edge predicate, a type alternation, a leaf
// shared by aliases that the run does not hold yet and one it holds, a key set
// at the join's pairs, a key set the leaf's scan would test, and for a vertex
// leaf on either side, bare, behind a Cached and an Alias, with a predicate,
// unlabeled, held, and with a key set its scan would test, under every
// morphism, the rows over the store are the rows over the plain graph, byte
// for byte as a bag; the join says it walked or looked up, and the leaf says
// how many rows it made and, if the walk tested a set, how many elements it
// tested.
func TestWalkedJoinIsInvisible(t *testing.T) {
	store := walkStore()
	morphs := []Morphism{{Vertex: Homomorphism, Edge: Homomorphism}, {Vertex: Homomorphism, Edge: Isomorphism}, {Vertex: Isomorphism, Edge: Isomorphism}}
	for _, morph := range morphs {
		for _, c := range walkCases(t, morph) {
			name := fmt.Sprintf("%s/%s-%s", c.name, morph.Vertex, morph.Edge)
			run := func(pinned bool) ([][]byte, *trace.Collector) {
				env := dataflow.NewEnv(dataflow.DefaultConfig(4))
				col := trace.NewCollector()
				env.SetTracer(col)
				env.Begin(nil)
				r := plainRun(dataflow.FromSlice(env, store.Vertices), dataflow.FromSlice(env, store.Edges))
				if pinned {
					r = indexedRun(store.Index(env))
				}
				if c.prepare != nil {
					c.prepare(t, r)
				}
				rows := c.root.Evaluate(r).Collect()
				if err := env.Finish(); err != nil {
					t.Fatal(err)
				}
				return bag(rows), col
			}
			want, _ := run(false)
			got, col := run(true)
			if len(want) == 0 {
				t.Fatalf("%s: the plain graph has no rows", name)
			}
			if !slices.EqualFunc(got, want, bytes.Equal) {
				t.Errorf("%s: %d rows walked (%x), %d over the plain graph (%x)", name, len(got), bagHash(got), len(want), bagHash(want))
			}
			st, _ := col.Op(c.join)
			in := inPlaceInput(c.join)
			read := "walked in place: edges=%d"
			if _, vertex := Unwrap(in).(*FilterAndProjectVertices); vertex {
				read = "looked up in place: vertices=%d"
			}
			var elements int64
			_, errJoin := fmt.Sscanf(st.Note, read, &elements)
			if walked := errJoin == nil; walked != c.walks {
				t.Errorf("%s: the join notes %q, read in place %v, want %v", name, st.Note, walked, c.walks)
			}
			if c.walks {
				// The leaf's line is the input's the join reads: what the walk
				// made, one row an element that passed the leaf's tests.
				leaf, ok := col.Op(in)
				if !ok || leaf.Rows == 0 || leaf.Evaluations != 1 {
					t.Errorf("%s: the walked leaf is traced %v with %d rows in %d evaluations", name, ok, leaf.Rows, leaf.Evaluations)
				}
				// A set the leaf's scan would test is tested on every element
				// read.
				var scanned, dropped int64
				_, errLeaf := fmt.Sscanf(leaf.Note, "sip scanned=%d dropped=%d", &scanned, &dropped)
				if c.scanSet && (errLeaf != nil || scanned != elements) {
					t.Errorf("%s: the walked leaf notes %q, the join %q", name, leaf.Note, st.Note)
				}
			}
		}
	}
}

// bagHash is a bag of rows' hash, for a message.
func bagHash(rows [][]byte) []byte {
	h := sha256.New()
	for _, r := range rows {
		h.Write(r)
	}
	return h.Sum(nil)[:8]
}
