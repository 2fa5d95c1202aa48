package cypher

import (
	"testing"

	"gradoop/internal/epgm"
)

const benchQuery = `
	MATCH (p1:Person)-[s:studyAt]->(u:University),
	      (p2:Person)-[:studyAt]->(u),
	      (p1)-[e:knows*1..3]->(p2)
	WHERE p1.gender <> p2.gender
	  AND u.name = 'Uni Leipzig'
	  AND s.classYear > 2014
	RETURN p1.name AS a, p2.name AS b ORDER BY a LIMIT 10`

func BenchmarkLex(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Lex(benchQuery); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(benchQuery); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBind is what every request pays to bind a cached template: each
// predicate, RETURN item and ORDER BY key is rewritten with its $parameters
// substituted.
func BenchmarkBind(b *testing.B) {
	q, err := Parse(`
	MATCH (p1:Person {gender: $gender})-[s:studyAt]->(u:University),
	      (p2:Person)-[:studyAt]->(u),
	      (p1)-[e:knows*1..3]->(p2)
	WHERE p1.gender <> p2.gender
	  AND u.name = $uni
	  AND s.classYear > $year
	  AND (p2.age IS NULL OR p2.age IN [20, $age])
	RETURN p1.name AS a, p2.name AS b ORDER BY a LIMIT 10`)
	if err != nil {
		b.Fatal(err)
	}
	tpl, err := BuildQueryGraphDeferred(q)
	if err != nil {
		b.Fatal(err)
	}
	params := map[string]epgm.PropertyValue{
		"gender": epgm.PVString("female"), "uni": epgm.PVString("Uni Leipzig"),
		"year": epgm.PVInt(2014), "age": epgm.PVInt(30),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := tpl.Bind(params); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildQueryGraph(b *testing.B) {
	q, err := Parse(benchQuery)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildQueryGraph(q, nil); err != nil {
			b.Fatal(err)
		}
	}
}
