package core

import (
	"sort"
	"testing"

	"gradoop/internal/dataflow"
	"gradoop/internal/epgm"
	"gradoop/internal/operators"
)

// optionalGraph: ann knows ben; ben knows cy; ann likes Alien; cy likes
// nothing; dora is isolated.
func optionalGraph(workers int) *epgm.LogicalGraph {
	env := dataflow.NewEnv(dataflow.DefaultConfig(workers))
	person := func(name string) epgm.Vertex {
		return epgm.Vertex{ID: epgm.NewID(), Label: "Person",
			Properties: epgm.Properties{}.Set("name", epgm.PVString(name))}
	}
	ann := person("Ann")
	ben := person("Ben")
	cy := person("Cy")
	dora := person("Dora")
	alien := epgm.Vertex{ID: epgm.NewID(), Label: "Movie",
		Properties: epgm.Properties{}.Set("title", epgm.PVString("Alien")).Set("year", epgm.PVInt(1979))}
	blade := epgm.Vertex{ID: epgm.NewID(), Label: "Movie",
		Properties: epgm.Properties{}.Set("title", epgm.PVString("Blade")).Set("year", epgm.PVInt(1998))}
	e := func(label string, s, t epgm.Vertex) epgm.Edge {
		return epgm.Edge{ID: epgm.NewID(), Label: label, Source: s.ID, Target: t.ID}
	}
	return epgm.GraphFromSlices(env, "G",
		[]epgm.Vertex{ann, ben, cy, dora, alien, blade},
		[]epgm.Edge{
			e("knows", ann, ben),
			e("knows", ben, cy),
			e("likes", ann, alien),
			e("likes", ben, alien),
			e("likes", ben, blade),
		})
}

func TestOptionalMatchBasic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		g := optionalGraph(workers)
		rows := rowsOf(t, g, `
			MATCH (p:Person)
			OPTIONAL MATCH (p)-[:likes]->(m:Movie)
			RETURN p.name, m.title ORDER BY p.name, m.title`)
		// ann->Alien, ben->Alien, ben->Blade, cy->null, dora->null.
		if len(rows) != 5 {
			t.Fatalf("workers=%d rows=%d: %v", workers, len(rows), rows)
		}
		got := map[string][]string{}
		for _, r := range rows {
			name := r.Values[0].Str()
			if r.Values[1].IsNull() {
				got[name] = append(got[name], "<null>")
			} else {
				got[name] = append(got[name], r.Values[1].Str())
			}
		}
		if len(got["Ann"]) != 1 || got["Ann"][0] != "Alien" {
			t.Fatalf("ann: %v", got["Ann"])
		}
		sort.Strings(got["Ben"])
		if len(got["Ben"]) != 2 || got["Ben"][0] != "Alien" || got["Ben"][1] != "Blade" {
			t.Fatalf("ben: %v", got["Ben"])
		}
		if len(got["Cy"]) != 1 || got["Cy"][0] != "<null>" {
			t.Fatalf("cy: %v", got["Cy"])
		}
		if len(got["Dora"]) != 1 || got["Dora"][0] != "<null>" {
			t.Fatalf("dora: %v", got["Dora"])
		}
	}
}

func TestOptionalMatchWhereDecidesNull(t *testing.T) {
	g := optionalGraph(2)
	// The WHERE belongs to the optional part: rows failing it become null
	// rows instead of disappearing.
	rows := rowsOf(t, g, `
		MATCH (p:Person)
		OPTIONAL MATCH (p)-[:likes]->(m:Movie) WHERE m.year > 1990
		RETURN p.name, m.title ORDER BY p.name`)
	// ann's only movie is 1979 -> null; ben keeps Blade (1998); cy, dora null.
	if len(rows) != 4 {
		t.Fatalf("rows=%d: %v", len(rows), rows)
	}
	byName := map[string]epgm.PropertyValue{}
	for _, r := range rows {
		byName[r.Values[0].Str()] = r.Values[1]
	}
	if !byName["Ann"].IsNull() {
		t.Fatalf("ann should be null: %v", byName["Ann"])
	}
	if byName["Ben"].Str() != "Blade" {
		t.Fatalf("ben: %v", byName["Ben"])
	}
}

func TestOptionalMatchChained(t *testing.T) {
	g := optionalGraph(3)
	rows := rowsOf(t, g, `
		MATCH (p:Person {name: 'Ann'})
		OPTIONAL MATCH (p)-[:knows]->(q:Person)
		OPTIONAL MATCH (q)-[:knows]->(r:Person)
		RETURN p.name, q.name, r.name`)
	if len(rows) != 1 {
		t.Fatalf("rows=%d: %v", len(rows), rows)
	}
	v := rows[0].Values
	if v[0].Str() != "Ann" || v[1].Str() != "Ben" || v[2].Str() != "Cy" {
		t.Fatalf("chain: %v", rows[0])
	}
	// Starting from Cy: both optionals null.
	rows = rowsOf(t, g, `
		MATCH (p:Person {name: 'Cy'})
		OPTIONAL MATCH (p)-[:knows]->(q:Person)
		OPTIONAL MATCH (q)-[:knows]->(r:Person)
		RETURN p.name, q.name, r.name`)
	if len(rows) != 1 || !rows[0].Values[1].IsNull() || !rows[0].Values[2].IsNull() {
		t.Fatalf("null chain: %v", rows)
	}
}

func TestOptionalMatchDisconnected(t *testing.T) {
	g := optionalGraph(2)
	// No shared variables: cartesian outer join.
	rows := rowsOf(t, g, `
		MATCH (p:Person {name: 'Dora'})
		OPTIONAL MATCH (m:Movie) WHERE m.year > 2100
		RETURN p.name, m.title`)
	if len(rows) != 1 || !rows[0].Values[1].IsNull() {
		t.Fatalf("disconnected optional: %v", rows)
	}
	rows = rowsOf(t, g, `
		MATCH (p:Person {name: 'Dora'})
		OPTIONAL MATCH (m:Movie)
		RETURN p.name, m.title`)
	if len(rows) != 2 {
		t.Fatalf("disconnected optional with matches: %v", rows)
	}
}

func TestOptionalMatchAggregation(t *testing.T) {
	g := optionalGraph(2)
	// count(m) skips nulls: the canonical "count per person incl. zero".
	rows := rowsOf(t, g, `
		MATCH (p:Person)
		OPTIONAL MATCH (p)-[:likes]->(m:Movie)
		RETURN p.name, count(m) AS movies ORDER BY p.name`)
	want := map[string]int64{"Ann": 1, "Ben": 2, "Cy": 0, "Dora": 0}
	if len(rows) != 4 {
		t.Fatalf("rows=%d", len(rows))
	}
	for _, r := range rows {
		if r.Values[1].Int() != want[r.Values[0].Str()] {
			t.Fatalf("row %v, want %d", r, want[r.Values[0].Str()])
		}
	}
}

func TestOptionalMatchMorphism(t *testing.T) {
	g := optionalGraph(2)
	// Vertex isomorphism: q must differ from p; ann-knows->ben is fine, but
	// an optional pattern (p)-[:knows]->(p) style duplicates are pruned by
	// the merged-morphism check.
	res, err := Execute(g, `
		MATCH (p:Person)-[:knows]->(q:Person)
		OPTIONAL MATCH (q)-[:knows]->(r:Person)
		RETURN *`, Config{Vertex: operators.Isomorphism, Edge: operators.Isomorphism})
	if err != nil {
		t.Fatal(err)
	}
	// ann->ben with r=cy; ben->cy with r=null.
	if res.Count() != 2 {
		t.Fatalf("count=%d\n%s", res.Count(), res.Explain())
	}
}

func TestOptionalMatchGraphCollectionSkipsNulls(t *testing.T) {
	g := optionalGraph(2)
	coll, err := ExecuteGraphs(g, `
		MATCH (p:Person {name: 'Cy'})
		OPTIONAL MATCH (p)-[:likes]->(m:Movie)
		RETURN *`, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if coll.GraphCount() != 1 {
		t.Fatalf("graphs=%d", coll.GraphCount())
	}
	head := coll.Heads.Collect()[0]
	if head.Properties.Has("m") {
		t.Fatalf("null binding materialized: %v", head.Properties)
	}
	lg, _ := coll.Graph(head.ID)
	if lg.VertexCount() != 1 {
		t.Fatalf("vertices=%d", lg.VertexCount())
	}
}

func TestOptionalMatchErrors(t *testing.T) {
	g := optionalGraph(1)
	cases := []string{
		// Constraints on already-bound variables are rejected.
		`MATCH (p:Person) OPTIONAL MATCH (p:Movie)-[:likes]->(m) RETURN *`,
		// Variable length paths are not supported in OPTIONAL MATCH.
		`MATCH (p:Person) OPTIONAL MATCH (p)-[:knows*1..2]->(q) RETURN *`,
		// Undeclared variable in the optional WHERE.
		`MATCH (p:Person) OPTIONAL MATCH (p)-[:likes]->(m) WHERE zz.x = 1 RETURN *`,
	}
	for _, q := range cases {
		if _, err := Execute(g, q, Config{}); err == nil {
			t.Errorf("Execute(%q): expected error", q)
		}
	}
}

func TestOptionalMatchDistinctAndNullOrdering(t *testing.T) {
	g := optionalGraph(2)
	rows := rowsOf(t, g, `
		MATCH (p:Person)
		OPTIONAL MATCH (p)-[:likes]->(m:Movie)
		RETURN DISTINCT m.title ORDER BY m.title`)
	// Alien, Blade, null (nulls sort last).
	if len(rows) != 3 {
		t.Fatalf("rows=%v", rows)
	}
	if rows[0].Values[0].Str() != "Alien" || rows[1].Values[0].Str() != "Blade" || !rows[2].Values[0].IsNull() {
		t.Fatalf("ordering: %v", rows)
	}
}
