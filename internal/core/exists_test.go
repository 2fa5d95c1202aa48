package core

import (
	"strings"
	"testing"

	"gradoop/internal/operators"
)

func TestExistsSemiJoin(t *testing.T) {
	g := optionalGraph(3) // ann knows ben; ben knows cy; ann/ben like movies
	// Persons who like at least one movie.
	rows := rowsOf(t, g, `
		MATCH (p:Person) WHERE exists((p)-[:likes]->(:Movie))
		RETURN p.name ORDER BY p.name`)
	if len(rows) != 2 || rows[0].Values[0].Str() != "Ann" || rows[1].Values[0].Str() != "Ben" {
		t.Fatalf("exists: %v", rows)
	}
}

func TestNotExistsAntiJoin(t *testing.T) {
	g := optionalGraph(2)
	rows := rowsOf(t, g, `
		MATCH (p:Person) WHERE NOT exists((p)-[:likes]->(:Movie))
		RETURN p.name ORDER BY p.name`)
	if len(rows) != 2 || rows[0].Values[0].Str() != "Cy" || rows[1].Values[0].Str() != "Dora" {
		t.Fatalf("not exists: %v", rows)
	}
}

func TestExistsCombinedWithPredicates(t *testing.T) {
	g := optionalGraph(2)
	// Persons with a liked movie AND a friend: only ann (ben has Blade but
	// knows cy... ben knows cy too). ann likes Alien & knows ben; ben likes
	// two movies & knows cy => both qualify; restrict by name.
	rows := rowsOf(t, g, `
		MATCH (p:Person)
		WHERE exists((p)-[:likes]->(:Movie)) AND exists((p)-[:knows]->(:Person))
		  AND p.name <> 'Ben'
		RETURN p.name`)
	if len(rows) != 1 || rows[0].Values[0].Str() != "Ann" {
		t.Fatalf("combined exists: %v", rows)
	}
}

func TestExistsAgainstBoundPair(t *testing.T) {
	g := optionalGraph(2)
	// Pairs of persons where both like the same movie: exists with two
	// bound endpoints and a shared anonymous midpoint... the pattern
	// (p)-[:likes]->(m)<-[:likes]-(q) inside exists.
	rows := rowsOf(t, g, `
		MATCH (p:Person), (q:Person)
		WHERE p.name < q.name AND exists((p)-[:likes]->(:Movie)<-[:likes]-(q))
		RETURN p.name, q.name`)
	if len(rows) != 1 || rows[0].Values[0].Str() != "Ann" || rows[0].Values[1].Str() != "Ben" {
		t.Fatalf("bound-pair exists: %v", rows)
	}
}

func TestExistsRespectsMorphism(t *testing.T) {
	g := optionalGraph(2)
	// Under edge isomorphism, the edge inside exists must differ from the
	// matched edge: persons whose knows edge has a parallel alternative do
	// not exist here, so requiring another knows edge from p to a person
	// eliminates everyone when the only edge is already bound... ann knows
	// only ben, so exists((p)-[:knows]->()) with the same edge bound
	// outside fails under ISO but succeeds under HOMO.
	homo, err := Execute(g, `
		MATCH (p:Person {name: 'Ann'})-[:knows]->(x:Person)
		WHERE exists((p)-[:knows]->(:Person))
		RETURN *`, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if homo.Count() != 1 {
		t.Fatalf("homo exists: %d", homo.Count())
	}
	iso, err := Execute(g, `
		MATCH (p:Person {name: 'Ann'})-[:knows]->(x:Person)
		WHERE exists((p)-[:knows]->(:Person))
		RETURN *`, Config{Edge: operators.Isomorphism})
	if err != nil {
		t.Fatal(err)
	}
	if iso.Count() != 0 {
		t.Fatalf("iso exists should require a distinct edge: %d", iso.Count())
	}
}

func TestExistsErrors(t *testing.T) {
	g := optionalGraph(1)
	cases := []string{
		// Nested in OR: unsupported.
		`MATCH (p:Person) WHERE p.name = 'x' OR exists((p)-[:likes]->()) RETURN *`,
		// Vertex-only pattern.
		`MATCH (p:Person) WHERE exists((p)) RETURN *`,
		// Var-length inside exists.
		`MATCH (p:Person) WHERE exists((p)-[:knows*1..2]->()) RETURN *`,
		// In OPTIONAL MATCH WHERE.
		`MATCH (p:Person) OPTIONAL MATCH (p)-[:knows]->(q) WHERE exists((q)-[:likes]->()) RETURN *`,
	}
	for _, q := range cases {
		if _, err := Execute(g, q, Config{}); err == nil {
			t.Errorf("Execute(%q): expected error", q)
		}
	}
}

func TestExistsExplainShowsSemiJoin(t *testing.T) {
	g := optionalGraph(1)
	res, err := Execute(g, `MATCH (p:Person) WHERE NOT exists((p)-[:likes]->(:Movie)) RETURN *`, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Explain(), "AntiJoinEmbeddings") {
		t.Fatalf("plan:\n%s", res.Explain())
	}
}
