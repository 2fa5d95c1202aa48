package core_test

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"

	"gradoop/internal/core"
	"gradoop/internal/epgm"
	"gradoop/internal/operators"
	"gradoop/internal/planner"
)

// overStore executes q over g and over a store of g, and fails the test if
// either fails.
func overStore(t *testing.T, g *epgm.LogicalGraph, q string) (plain, stored *core.Result) {
	t.Helper()
	plain, err := core.Execute(g, q, core.Config{})
	if err != nil {
		t.Fatalf("%q: %v", q, err)
	}
	stored, err = core.Execute(g, q, core.Config{Access: planner.IndexedAccess{Index: epgm.BuildIndex(g)}})
	if err != nil {
		t.Fatalf("%q over the store: %v", q, err)
	}
	return plain, stored
}

// jsonRows is the result's rows array as the HTTP body carries it.
func jsonRows(t *testing.T, res *core.Result) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := res.WriteRowsJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestResultReadsTheStore: over a store in which no two vertices share an id,
// a vertex property that only the result reads - a RETURN item, an
// expression's operand, ORDER BY, an aggregate's argument - is in no row: the
// root keeps the vertex's id and the result reads the property from the
// store. The table is the plain graph's, through Rows and through the JSON
// writer, byte for byte where the order is the query's. An edge's property,
// and one a predicate after the leaves reads, are still carried.
func TestResultReadsTheStore(t *testing.T) {
	for _, c := range []struct {
		query   string
		stored  []string // var.key the root must not carry
		carried []string // var.key it must
	}{
		{`MATCH (a:A)-[e:x]->(b:B) RETURN a.n, b.color, e.w ORDER BY a.n, b.n, e.w`, []string{"a.n", "b.color", "b.n"}, []string{"e.w"}},
		{`MATCH (a:A)-[e:x]->(b:B) RETURN a.n + b.n AS s, b.color ORDER BY s, b.color`, []string{"a.n", "b.n", "b.color"}, nil},
		{`MATCH (a:A)-[:x]->(b:B) RETURN b.color, count(a.n) AS k, max(a.n) AS top ORDER BY b.color`, []string{"a.n", "b.color"}, nil},
		{`MATCH (a:A)-[:x]->(b) WHERE a.color <> b.color RETURN a.n, b.n ORDER BY a.n, b.n`, []string{"a.n", "b.n"}, []string{"a.color", "b.color"}},
	} {
		for _, workers := range []int{1, 4} {
			plain, stored := overStore(t, inplaceGraph(workers), c.query)
			if stored.Plan.PropertyStore() == nil {
				t.Errorf("%q at %d partitions: the result reads no store", c.query, workers)
			}
			for _, ref := range c.stored {
				v, k, _ := strings.Cut(ref, ".")
				if stored.Meta.HasProp(v, k) || !stored.Meta.HasVar(v) {
					t.Errorf("%q at %d partitions: the root carries %s, or not %s's id", c.query, workers, ref, v)
				}
			}
			for _, ref := range c.carried {
				if v, k, _ := strings.Cut(ref, "."); !stored.Meta.HasProp(v, k) {
					t.Errorf("%q at %d partitions: the root does not carry %s", c.query, workers, ref)
				}
			}
			if got, want := tableRows(stored), tableRows(plain); !slices.Equal(got, want) || len(got) == 0 {
				t.Errorf("%q at %d partitions: rows\n%v\nwant\n%v", c.query, workers, got, want)
			}
			if got, want := jsonRows(t, stored), jsonRows(t, plain); got != want {
				t.Errorf("%q at %d partitions: body\n%s\nwant\n%s", c.query, workers, got, want)
			}
		}
	}
}

// TestNullVertexReadsNull: a vertex an OPTIONAL MATCH binds to NULL has NULL
// properties, read from the store as from a row: C vertex 13 has no y edge.
// The store holds a vertex of id 0, the id a NULL column's entry holds, so
// a NULL read as an id would read its color.
func TestNullVertexReadsNull(t *testing.T) {
	const q = `MATCH (c:C) OPTIONAL MATCH (c)-[:y]->(a:A) RETURN c.n, a.color ORDER BY c.n`
	zero := epgm.Vertex{ID: 0, Label: "D", Properties: epgm.Properties{}.Set("color", epgm.PVString("black"))}
	for _, workers := range []int{1, 4} {
		plain, stored := overStore(t, inplaceGraph(workers, zero), q)
		if stored.Meta.HasProp("a", "color") || !stored.Meta.HasVar("a") {
			t.Fatalf("at %d partitions: a.color is carried, or a's id is not", workers)
		}
		rows := stored.Rows()
		if len(rows) != 3 || rows[2].Values[0].Int() != 13 || !rows[2].Values[1].IsNull() || rows[0].Values[1].IsNull() {
			t.Fatalf("at %d partitions: rows %v", workers, rows)
		}
		want := `[[11,"red"],[12,"blue"],[13,null]]`
		if got := jsonRows(t, stored); got != want || jsonRows(t, plain) != want {
			t.Fatalf("at %d partitions: body %s over the store, %s over the graph, want %s", workers, got, jsonRows(t, plain), want)
		}
	}
}

// TestRepeatedIDsKeepCarrying: over a store that gives one id to two vertices
// an id cannot name a vertex, so the plan's rows carry every property the
// result reads, as over the plain graph.
func TestRepeatedIDsKeepCarrying(t *testing.T) {
	const q = `MATCH (a:A)-[:x]->(b:B) RETURN a.n, b.color`
	twice := epgm.Vertex{ID: 7, Label: "C", Properties: epgm.Properties{}.Set("n", epgm.PVInt(71))}
	for _, c := range []struct {
		g      *epgm.LogicalGraph
		stores bool
	}{{inplaceGraph(4), true}, {inplaceGraph(4, twice), false}} {
		plain, stored := overStore(t, c.g, q)
		if got := stored.Plan.PropertyStore() != nil; got != c.stores || stored.Meta.HasProp("a", "n") == c.stores {
			t.Errorf("repeated ids %v: the result reads the store %v, the root carries a.n %v", !c.stores, got, stored.Meta.HasProp("a", "n"))
		}
		if got, want := tableRows(stored), tableRows(plain); !slices.Equal(got, want) {
			t.Errorf("repeated ids %v: rows\n%v\nwant\n%v", !c.stores, got, want)
		}
	}
}

// TestRebindNeedsTheStore: a plan whose result reads the store binds only to
// an access whose store finds a vertex by its id - not to the plain graph, not
// to a store that gives an id twice - and its fingerprint is not the plain
// plan's, so two processes that decided differently do not run it together:
// not even a lone leaf's, whose description does not name what it projects.
func TestRebindNeedsTheStore(t *testing.T) {
	g := inplaceGraph(4)
	prepare := func(q string, access planner.GraphAccess) *core.Prepared {
		t.Helper()
		prep, err := core.Prepare(g, q, core.Config{Vertex: operators.Homomorphism, Edge: operators.Isomorphism, Access: access})
		if err != nil {
			t.Fatal(err)
		}
		return prep
	}
	store := planner.IndexedAccess{Index: epgm.BuildIndex(g)}
	for _, q := range []string{`MATCH (a:A) RETURN a.n`, `MATCH (a:A)-[:x]->(b:B) RETURN a.n, b.color`} {
		if prepare(q, store).Fingerprint() == prepare(q, nil).Fingerprint() {
			t.Errorf("%q: the store-reading plan has the plain plan's fingerprint", q)
		}
	}
	const q = `MATCH (a:A)-[:x]->(b:B) RETURN a.n, b.color`
	plain, prep := prepare(q, nil), prepare(q, store)
	repeated := inplaceGraph(4, epgm.Vertex{ID: 2, Label: "A"})
	for _, c := range []struct {
		name   string
		g      *epgm.LogicalGraph
		access planner.GraphAccess
		store  bool
	}{
		{"plain", g, nil, false},
		{"repeated ids", repeated, planner.IndexedAccess{Index: epgm.BuildIndex(repeated)}, true},
	} {
		_, err := prep.Bind(c.g, core.Config{Access: c.access})
		var refused *planner.StoreAccessError
		if !errors.As(err, &refused) || refused.Store != c.store {
			t.Errorf("%s: bind returned %v, want a StoreAccessError with Store %v", c.name, err, c.store)
		}
	}
	if _, err := plain.Bind(g, core.Config{}); err != nil {
		t.Errorf("the plain plan does not bind to the plain graph: %v", err)
	}
}
