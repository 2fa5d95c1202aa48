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

// inplaceStore is a pinned graph of persons 1..persons with a property n, each
// with outDegree knows edges to the persons after it on a ring.
func inplaceStore(persons, outDegree int) *epgm.Store {
	vs := make([]epgm.Vertex, persons)
	for i := range vs {
		vs[i] = epgm.Vertex{ID: epgm.ID(1 + i), Label: "Person", Properties: epgm.Properties{}.Set("n", epgm.PVInt(int64(1+i)))}
	}
	var es []epgm.Edge
	for i := range vs {
		for hop := 1; hop <= outDegree; hop++ {
			es = append(es, epgm.Edge{ID: epgm.ID(1000 + len(es)), Label: "knows", Source: vs[i].ID, Target: vs[(i+hop)%persons].ID})
		}
	}
	return epgm.NewStore(epgm.GraphFromSlices(dataflow.NewEnv(dataflow.DefaultConfig(1)), "", vs, es))
}

// firstPersons is the selective side: the persons with n <= k.
func firstPersons(t testing.TB, v string, k int) *FilterAndProjectVertices {
	t.Helper()
	q, err := cypher.Parse(fmt.Sprintf("MATCH (%s) WHERE %s.n <= %d RETURN *", v, v, k))
	if err != nil {
		t.Fatal(err)
	}
	return NewFilterAndProjectVertices(&cypher.QueryVertex{Var: v, Labels: []string{"Person"},
		Predicates: []cypher.Expr{q.Where}, Projection: []string{"n"}})
}

func plainKnows(v, src, tgt string) *cypher.QueryEdge {
	return &cypher.QueryEdge{Var: v, Types: []string{"knows"}, Source: src, Target: tgt, MinHops: 1, MaxHops: 1}
}

// bag is a dataset's rows as their wire bytes, sorted.
func bag(rows []embedding.Embedding) [][]byte {
	out := make([][]byte, len(rows))
	for i, e := range rows {
		out[i] = e.AppendWire(nil)
	}
	slices.SortFunc(out, bytes.Compare)
	return out
}

// walkedFrom is the selective side of a join that looks a vertex leaf up: the
// persons v with n <= k joined with their knows edges (e, src, tgt), which the
// join walks over a pinned store.
func walkedFrom(t testing.TB, v string, k int, e, src, tgt string) *JoinEmbeddings {
	persons := firstPersons(t, v, k)
	if v == src {
		return NewJoinEmbeddings(persons, NewFilterAndProjectEdges(plainKnows(e, src, tgt)), Morphism{}, nil)
	}
	return NewJoinEmbeddings(NewFilterAndProjectEdges(plainKnows(e, src, tgt)), persons, Morphism{}, nil)
}

// TestProbeInPlaceOnEitherSide: a vertex leaf - the knows edges' target and
// their source - as the left and as the right input of the join, looked up by
// id over the pinned store, gives the rows the hash join over the plain graph
// gives, columns in the same order, and reads one vertex a row of the other
// input.
func TestProbeInPlaceOnEitherSide(t *testing.T) {
	store := inplaceStore(30, 3)
	for _, leaf := range []string{"target", "source"} {
		for _, onLeft := range []bool{false, true} {
			small := walkedFrom(t, "a", 4, "e", "a", "b")
			probed := NewFilterAndProjectVertices(&cypher.QueryVertex{Var: "b", Labels: []string{"Person"}, Projection: []string{"n"}})
			if leaf == "source" {
				small = walkedFrom(t, "b", 4, "e", "a", "b")
				probed = NewFilterAndProjectVertices(&cypher.QueryVertex{Var: "a", Labels: []string{"Person"}, Projection: []string{"n"}})
			}
			op := NewJoinEmbeddings(small, probed, Morphism{}, nil)
			if onLeft {
				op = NewJoinEmbeddings(probed, small, Morphism{}, nil)
			}
			run := func(pinned bool) ([][]byte, string) {
				env := dataflow.NewEnv(dataflow.DefaultConfig(4))
				col := trace.NewCollector()
				env.SetTracer(col)
				r := plainRun(dataflow.FromSlice(env, store.Vertices), dataflow.FromSlice(env, store.Edges))
				if pinned {
					r = indexedRun(store.Index(env))
				}
				rows := op.Evaluate(r).Collect()
				if err := env.Err(); err != nil {
					t.Fatal(err)
				}
				st, _ := col.Op(op)
				return bag(rows), st.Note
			}
			want, note := run(false)
			if len(want) != 12 || strings.HasPrefix(note, "looked up in place") {
				t.Fatalf("%s, leaf on the left %v: the hash join found %d rows and says %q", leaf, onLeft, len(want), note)
			}
			got, note := run(true)
			if note != "looked up in place: vertices=12" {
				t.Fatalf("%s, leaf on the left %v: over the pinned store the join says %q", leaf, onLeft, note)
			}
			if !slices.EqualFunc(got, want, bytes.Equal) {
				t.Errorf("%s, leaf on the left %v: looked up by id the join's rows differ from the hash join's", leaf, onLeft)
			}
		}
	}
}
