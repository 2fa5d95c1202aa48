package gradoop

import (
	"testing"
)

// TestFullPipelineRoundTrip exercises the complete user journey: declare a
// graph in GDL, persist it as Gradoop-CSV, reload it into a different
// environment, query it with the full language surface, run an algorithm,
// and compose EPGM operators on the result.
func TestFullPipelineRoundTrip(t *testing.T) {
	src := NewEnvironment(WithWorkers(2))
	db, err := src.ParseGDL(`
		net:Social [
			(a:Person {name: "Ada", age: 36})
			(b:Person {name: "Bo", age: 29})
			(c:Person {name: "Cleo", age: 41})
			(d:Person {name: "Dan"})
			(a)-[:knows {since: 2010}]->(b)
			(b)-[:knows {since: 2015}]->(c)
			(a)-[:knows {since: 2020}]->(c)
			(c)-[:knows {since: 2021}]->(d)
		]`)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := db.Graph("net")
	dir := t.TempDir()
	if err := g.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}

	dst := NewEnvironment(WithWorkers(4))
	loaded, err := dst.ReadCSV(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.EqualsByData(g) {
		t.Fatal("CSV round trip changed graph data")
	}
	if err := loaded.Verify(); err != nil {
		t.Fatal(err)
	}

	// Full-surface query: var-length path, OPTIONAL MATCH, exists,
	// aggregation, ordering.
	rows, err := loaded.CypherRows(`
		MATCH (p:Person)-[e:knows*1..2]->(q:Person)
		WHERE exists((p)-[:knows]->(:Person)) AND q.age IS NOT NULL
		RETURN p.name AS src, count(*) AS reachable
		ORDER BY reachable DESC, src`,
		WithEdgeSemantics(Isomorphism))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	// Ada reaches Bo (1 hop), Cleo (direct + via Bo): 3 bindings with age.
	if rows[0].Values[0].Str() != "Ada" || rows[0].Values[1].Int() != 3 {
		t.Fatalf("top row: %v", rows[0])
	}

	// Algorithms compose on the loaded graph.
	ranked := loaded.PageRank(0.85, 10)
	var best string
	var bestScore float64
	for _, v := range ranked.Vertices() {
		if s := v.Properties.Get(PageRankPropertyKey).Float(); s > bestScore {
			bestScore = s
			best = v.Properties.Get("name").Str()
		}
	}
	// Dan is the chain's sink: Cleo forwards her entire (two-source) rank
	// to him, so he accumulates the most mass.
	if best != "Dan" {
		t.Fatalf("highest PageRank should be the sink Dan: %s (%.4f)", best, bestScore)
	}

	// EPGM composition: the match collection feeds set operations.
	matches, err := loaded.Cypher(`MATCH (p:Person)-[:knows]->(q:Person) RETURN *`)
	if err != nil {
		t.Fatal(err)
	}
	if matches.GraphCount() != 4 {
		t.Fatalf("match graphs: %d", matches.GraphCount())
	}
	first := matches.Heads()[0].ID
	one := matches.Select(func(h GraphHead) bool { return h.ID == first })
	if got := matches.Difference(one).GraphCount(); got != 3 {
		t.Fatalf("difference: %d", got)
	}
}
