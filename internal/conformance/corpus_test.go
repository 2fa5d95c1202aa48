package conformance

import (
	"fmt"
	"slices"
	"strings"

	"gradoop/internal/benchkit"
	"gradoop/internal/dataflow"
	"gradoop/internal/epgm"
	"gradoop/internal/ldbc"
	"gradoop/internal/operators"
	"gradoop/internal/params"
	"gradoop/internal/stats"
)

// spec is one query of the corpus, run once per morphism setting it names.
type spec struct {
	query  string
	params map[string]any // as an HTTP body carries them
	morphs string         // space-separated settings, vertex then edge: "HI" is HOMO/ISO, the paper's and the default
	empty  string         // the settings under which nothing matches; "*" for all of them
	err    string         // the error kind every mode reports instead of rows
}

var settings = map[string]operators.Morphism{
	"HH": {Vertex: operators.Homomorphism, Edge: operators.Homomorphism},
	"HI": {Vertex: operators.Homomorphism, Edge: operators.Isomorphism},
	"IH": {Vertex: operators.Isomorphism, Edge: operators.Homomorphism},
	"II": {Vertex: operators.Isomorphism, Edge: operators.Isomorphism},
}

// corpus is every case of every fixture; short leaves out the LDBC fixture.
func corpus(short bool) []*kase {
	fixtures := []func() (*fixture, []spec){social, parity, morphisms, shapes, masks, wide, cycles, replies}
	if !short {
		fixtures = append(fixtures, ldbcFixture)
	}
	var out []*kase
	for _, build := range fixtures {
		f, specs := build()
		f.stats, f.held = stats.Collect(f.graph(1)), map[string]any{}
		for i, s := range specs {
			p, err := params.FromJSON(s.params)
			if err != nil {
				panic(err)
			}
			morphs := strings.Fields(s.morphs)
			if len(morphs) == 0 {
				morphs = []string{"HI"}
			}
			for _, m := range morphs {
				out = append(out, &kase{f: f, name: fmt.Sprintf("%s/%d/%s", f.name, i, m), query: s.query, json: s.params,
					params: p, morph: settings[m], err: s.err, empty: s.empty == "*" || slices.Contains(strings.Fields(s.empty), m)})
			}
		}
	}
	return out
}

// props builds properties from key, value pairs.
func props(kv ...any) epgm.Properties {
	var p epgm.Properties
	for i := 0; i < len(kv); i += 2 {
		var v epgm.PropertyValue
		switch x := kv[i+1].(type) {
		case string:
			v = epgm.PVString(x)
		case int:
			v = epgm.PVInt(int64(x))
		case float64:
			v = epgm.PVFloat(x)
		default:
			panic(fmt.Sprintf("property %v: %T", kv[i], x))
		}
		p = p.Set(kv[i].(string), v)
	}
	return p
}

func vertex(id int, label string, kv ...any) epgm.Vertex {
	return epgm.Vertex{ID: epgm.ID(id), Label: label, Properties: props(kv...)}
}

// edges appends one edge of the label per pair, ids counted on from the
// slice's length.
func edges(es []epgm.Edge, label string, pairs ...[2]int) []epgm.Edge {
	for _, st := range pairs {
		es = append(es, epgm.Edge{ID: epgm.ID(1000 + len(es)), Label: label, Source: epgm.ID(st[0]), Target: epgm.ID(st[1]),
			Properties: props("w", len(es)%3)})
	}
	return es
}

// The error cases: one kind in every mode (HTTP says it with 400, the
// library with an error).
var invalid = []spec{
	{query: `MATCH (a WHERE`, err: "invalid"},
	{query: `MATCH (a:Person) WHERE b.x = 1 RETURN *`, err: "invalid"},
	{query: `MATCH (a:Person) WHERE a.name = $name RETURN a.name`, err: "invalid"},
}

// social is the paper's Figure 1 grown a little: persons with and without an
// age or a gender, two universities in two cities.
func social() (*fixture, []spec) {
	vs := []epgm.Vertex{
		vertex(1, "Person", "name", "Alice", "gender", "female", "age", 30, "score", 0.5),
		vertex(2, "Person", "name", "Bob", "gender", "male", "age", 25, "score", 1.5),
		vertex(3, "Person", "name", "Eve", "gender", "female", "age", 35),
		vertex(4, "Person", "name", "Carol", "gender", "female", "age", 41, "score", 2.25),
		vertex(5, "Person", "name", "Dan"),
		vertex(6, "University", "name", "Uni Leipzig"),
		vertex(7, "University", "name", "TU Dresden"),
		vertex(8, "City", "name", "Leipzig"),
		vertex(9, "City", "name", "Dresden"),
	}
	es := edges(nil, "knows", [2]int{1, 2}, [2]int{2, 1}, [2]int{2, 3}, [2]int{3, 4}, [2]int{4, 1}, [2]int{4, 5}, [2]int{1, 3})
	es = append(es,
		epgm.Edge{ID: 1100, Label: "studyAt", Source: 1, Target: 6, Properties: props("classYear", 2015)},
		epgm.Edge{ID: 1101, Label: "studyAt", Source: 2, Target: 6, Properties: props("classYear", 2014)},
		epgm.Edge{ID: 1102, Label: "studyAt", Source: 3, Target: 6, Properties: props("classYear", 2016)},
		epgm.Edge{ID: 1103, Label: "studyAt", Source: 4, Target: 7, Properties: props("classYear", 2013)},
	)
	es = edges(es, "isLocatedIn", [2]int{6, 8}, [2]int{7, 9})
	return &fixture{name: "social", vs: vs, es: es}, append([]spec{
		{query: `MATCH (a:Person)-[:knows]->(b:Person) RETURN *`, morphs: "HH HI IH II"},
		{query: `MATCH (p:Person) WHERE p.gender = 'female' RETURN *`},
		{query: `MATCH (p1:Person)-[s:studyAt]->(u:University), (p2:Person)-[:studyAt]->(u), (p1)-[e:knows*1..3]->(p2)
			WHERE p1.gender <> p2.gender AND u.name = 'Uni Leipzig' AND s.classYear > 2014 RETURN *`, morphs: "HH HI II"},
		{query: `MATCH (a:Person)-[e:knows*0..2]->(b) RETURN *`, morphs: "HH HI II"},
		{query: `MATCH (a:Person)-[e:knows*2..2]->(b:Person) RETURN *`, morphs: "HH II"},
		{query: `MATCH (a:Person)-[:knows]->(b:Person), (b)-[e:knows*1..3]->(a) RETURN *`, morphs: "HH II"},
		{query: `MATCH (u:University)<-[s:studyAt]-(p:Person) RETURN *`},
		{query: `MATCH (x:University|City) RETURN *`},
		{query: `MATCH (p:Person)-[r:studyAt|isLocatedIn]->(x) RETURN *`},
		{query: `MATCH (a:Person)-[e:knows]-(b:Person) RETURN *`, morphs: "HH HI"},
		{query: `MATCH (p1:Person)-[:knows]->(p2:Person), (p2)-[:knows]->(p3:Person), (p1)-[:knows]->(p3) RETURN *`, morphs: "HH II"},
		{query: `MATCH (a:Person)-[:knows]->(b:Person)-[:knows]->(c:Person) RETURN *`, morphs: "HH II"},
		{query: `MATCH (:Person)-[:studyAt]->(u) RETURN *`},
		{query: `MATCH (u:University), (c:City) RETURN *`},
		{query: `MATCH (p:Person {name: $n})-[:knows]->(q) RETURN *`, params: map[string]any{"n": "Alice"}},
		{query: `MATCH (p:Person)-[:knows]->(q:Person) WHERE p.age > $min RETURN *`, params: map[string]any{"min": 28.0}},
		{query: `MATCH (p:Person) WHERE p.age > 100 RETURN *`, empty: "*"},
		{query: `MATCH (p:Person) WHERE p.gender IS NULL RETURN *`},
		{query: `MATCH (p:Person) WHERE p.age < 30 OR p.age >= 40 RETURN *`},
		{query: `MATCH (p:Person)-[:knows]->(q:Person), (q)-[:studyAt]->(u:University) WHERE p.age < q.age RETURN *`},
		// What the reference cannot evaluate yet: OPTIONAL MATCH, exists(),
		// RETURN items, aggregates, DISTINCT, ORDER BY, SKIP and LIMIT.
		{query: `MATCH (p1:Person)-[s:studyAt]->(u:University) WHERE s.classYear > 2014 RETURN p1.name, u.name`},
		{query: `MATCH (p:Person) OPTIONAL MATCH (p)-[s:studyAt]->(u:University) RETURN p.name, u.name`},
		{query: `MATCH (p:Person) OPTIONAL MATCH (p)-[s:studyAt]->(u:University) WHERE s.classYear > 2014 RETURN p.name, s.classYear, u`},
		{query: `MATCH (p:Person) OPTIONAL MATCH (p)-[:knows]->(q:Person)-[:studyAt]->(u:University) RETURN *`, morphs: "HH HI"},
		{query: `MATCH (p:Person) WHERE exists((p)-[:studyAt]->(:University)) RETURN p.name`},
		{query: `MATCH (p:Person) WHERE NOT exists((p)-[:studyAt]->(:University)) RETURN p.name`},
		{query: `MATCH (p:Person)-[:knows]->(q:Person) WHERE exists((q)-[:studyAt]->(:University)) RETURN p.name, q.name`},
		{query: `MATCH (p:Person) WHERE exists((:University)-[:isLocatedIn]->(:City)) RETURN p.name`},
		{query: `MATCH (p:Person)-[:knows]->(q:Person) RETURN p.name, count(*), sum(q.age), min(q.age), max(q.age), avg(q.age)`},
		{query: `MATCH (p:Person) RETURN count(*), count(p.age), sum(p.score), avg(p.score)`},
		{query: `MATCH (p:Person) RETURN p.gender, count(*) ORDER BY p.gender`},
		{query: `MATCH (p:Person)-[:knows]->(q:Person) RETURN DISTINCT q.gender`},
		{query: `MATCH (p:Person)-[:knows]->(q:Person) RETURN p.name, q.name ORDER BY p.name, q.name SKIP 1 LIMIT 3`},
		{query: `MATCH (p:Person) RETURN p.name, p.age ORDER BY p.age DESC, p.name`},
		{query: `MATCH (p:Person) RETURN p.name AS who, p.age + 1 AS next, p.name STARTS WITH 'A' AS a ORDER BY who`},
		{query: `MATCH (p:Person)-[e:knows*1..2]->(q:Person) WHERE p.name = 'Alice' RETURN q.name, e`, morphs: "HH HI"},
		{query: `MATCH (p:Person) WHERE p.age > 30 AND p.age < 20 RETURN p.name`, empty: "*"},
	}, invalid...)
}

// parity is what the output path has to get right: strings that need
// escaping, ints on both sides of 2^53, floats in plain and exponent form, a
// negative zero and missing properties.
func parity() (*fixture, []spec) {
	vs := []epgm.Vertex{
		vertex(1, "Person", "name", "Alice", "age", 30, "score", 0.5),
		vertex(2, "Person", "name", "Bob \"the\" <b>", "age", 1<<53+1, "score", 1e-9),
		vertex(3, "Person", "name", "Eve\\\n\x01", "age", -(1 << 53), "score", 1e21),
		vertex(4, "Person", "name", "Zo\xc3\xab \xe2\x80\xa8 \xff", "age", 41, "score", negZero()),
		vertex(5, "Person", "name", "Nick"),
	}
	es := edges(nil, "knows", [2]int{1, 2}, [2]int{2, 3}, [2]int{3, 4}, [2]int{4, 1}, [2]int{1, 3}, [2]int{5, 1})
	return &fixture{name: "parity", vs: vs, es: es}, []spec{
		{query: `MATCH (a:Person)-[e:knows]->(b:Person) RETURN *`},
		{query: `MATCH (a:Person)-[:knows]->(b:Person) RETURN a.name, b.age, b.score`},
		{query: `MATCH (a:Person)-[p:knows*1..2]->(b:Person) RETURN a.name, p, b`},
		{query: `MATCH (a:Person)<-[p:knows*1..3]-(b:Person) RETURN a.name, p, b.name`},
		{query: `MATCH (a:Person) OPTIONAL MATCH (a)-[e:knows]->(b:Person) WHERE b.age > 35 RETURN a.name, e, b, b.name`},
		{query: `MATCH (a:Person)-[:knows]->(b:Person) RETURN a.name, count(*), max(b.age), avg(b.score)`},
		{query: `MATCH (a:Person)-[:knows]->(b:Person) RETURN DISTINCT b.name`},
		{query: `MATCH (a:Person)-[:knows]->(b:Person) RETURN a.name, b.name ORDER BY b.age DESC, a.name SKIP 1 LIMIT 3`},
		{query: `MATCH (a:Person), (b:Person) WHERE a.age > 35 AND b.age < 30 RETURN a.name, b.name`},
		{query: `MATCH (a:Person) WHERE a.age > 100 AND a.age < 0 RETURN a.name, a.age`, empty: "*"},
		{query: `MATCH (a:Person)-[:knows]->(b:Person) WHERE a.age > 100 AND a.age < 0 RETURN a, b`, empty: "*"},
	}
}

func negZero() float64 {
	var zero float64
	return -zero
}

// morphisms is a graph on which each of the four morphism settings matches a
// different number of times: a pair of parallel edges each way between 1 and
// 2 and an edge on to 3. Two query edges between one pair of variables may
// bind one edge twice under edge homomorphism without repeating a vertex, and
// the walk on from b may come back to a under vertex homomorphism: 20, 10, 4
// and 2 matches under HH, HI, IH and II.
func morphisms() (*fixture, []spec) {
	vs := []epgm.Vertex{vertex(1, "N"), vertex(2, "N"), vertex(3, "N")}
	es := edges(nil, "x", [2]int{1, 2}, [2]int{1, 2}, [2]int{2, 1}, [2]int{2, 1}, [2]int{2, 3})
	return &fixture{name: "morphisms", vs: vs, es: es}, []spec{
		{query: `MATCH (a)-[e]->(b), (a)-[f]->(b), (b)-[g]->(c) RETURN *`, morphs: "HH HI IH II"},
		{query: `MATCH (p)-[:x]->(q)-[:x]->(r) RETURN *`, morphs: "HH HI IH II"},
	}
}

// shapes has what a pattern can run into: three labels and two edge types, a
// loop of each type, parallel edges, two-cycles, vertices nothing points at
// and an isolated one. Its selective joins over labeled leaves are the shapes
// the in-place probe takes.
func shapes() (*fixture, []spec) {
	colors := []string{"red", "green", "blue"}
	var vs []epgm.Vertex
	for i, label := range []string{"A", "A", "A", "A", "A", "A", "B", "B", "B", "B", "C", "C", "C"} {
		vs = append(vs, vertex(1+i, label, "n", 1+i, "color", colors[i%3]))
	}
	es := edges(nil, "x", [2]int{1, 7}, [2]int{1, 8}, [2]int{1, 7}, [2]int{2, 7}, [2]int{2, 9}, [2]int{3, 10}, [2]int{1, 2},
		[2]int{2, 1}, [2]int{1, 1}, [2]int{2, 3}, [2]int{3, 4}, [2]int{1, 11}, [2]int{2, 12}, [2]int{4, 5}, [2]int{5, 4}, [2]int{7, 11})
	es = edges(es, "y", [2]int{7, 1}, [2]int{8, 1}, [2]int{9, 2}, [2]int{7, 2}, [2]int{10, 6}, [2]int{2, 2}, [2]int{1, 3},
		[2]int{3, 1}, [2]int{11, 1}, [2]int{12, 3}, [2]int{2, 7})
	return &fixture{name: "shapes", vs: vs, es: es}, []spec{
		{query: `MATCH (a:A)-[e:x]->(b:B) WHERE a.n = 1 RETURN *`, morphs: "HH HI II"},
		{query: `MATCH (b:B)<-[e:x]-(a:A) WHERE b.n = 7 RETURN *`},
		{query: `MATCH (a:A)-[e:x]->(b:B), (b)-[f:y]->(a) WHERE a.n < 3 RETURN *`, morphs: "HH II"},
		{query: `MATCH (a:A)-[e:x]->(b:A) WHERE a.n < 3 RETURN *`, morphs: "HH HI IH II"},
		{query: `MATCH (a:A)-[e:x]->(b:B), (a)-[f]->(c:B) WHERE a.n = 1 RETURN *`, morphs: "HH HI IH II"},
		{query: `MATCH (a:A)-[e:x|y]->(b:B|C) WHERE a.n < 3 RETURN *`},
		{query: `MATCH (a:A)-[e]->(b) WHERE a.n = 2 RETURN *`},
		{query: `MATCH (a:A)-[e:x]->(b:B) WHERE a.n = 99 RETURN *`, empty: "*"},
		{query: `MATCH (a:A)-[e:x]-(b) WHERE a.n = 1 RETURN *`, morphs: "HH HI"},
		{query: `MATCH (a:A)-[e:x]->(a) RETURN *`, morphs: "HH II"},
		{query: `MATCH (a)-[e]->(a) RETURN *`},
		{query: `MATCH (a:A)-[e:x*0..2]->(b:A) WHERE a.n = 1 RETURN *`, morphs: "HH HI IH II"},
		{query: `MATCH (a:A)-[e:x*2..2]->(b) RETURN *`, morphs: "HH HI II"},
		{query: `MATCH (a:A|B)-[e:y]->(b:A) RETURN *`},
		{query: `MATCH (a:C)-[e]-(b) RETURN *`, morphs: "HH HI"},
		{query: `MATCH (a)-[e:x|y*1..2]->(b:C) RETURN *`, morphs: "HH HI II"},
		{query: `MATCH (c:B)-[f:y]->(a:A), (a)-[e:x]->(b:B) WHERE c.n < 9 RETURN *`, morphs: "HH HI II"},
		{query: `MATCH (a:A)-[e:x]->(b:A), (b)-[f:x]->(c:A) WHERE a.n = 1 RETURN *`, morphs: "HH HI IH II"},
		{query: `MATCH (a:A), (b:B) WHERE a.color = b.color RETURN *`},
		{query: `MATCH (n) WHERE n.n = 13 RETURN *`},
		{query: `MATCH (a:A)-[e:x*1..3]-(b) WHERE a.n = 4 RETURN *`, morphs: "HH HI II"},
		{query: `MATCH (a:A)-[e:y]->(b) WHERE e.w > 0 RETURN *`},
		{query: `MATCH (a:A) OPTIONAL MATCH (a)-[e:y]->(b:B) RETURN a.n, b.n`},
		{query: `MATCH (a:A)-[e:x]->(b) RETURN b.color, count(*) ORDER BY b.color`},
		{query: `MATCH (a:A) WHERE NOT exists((a)-[:x]->(:B)) RETURN a.n ORDER BY a.n`},
		{query: `MATCH (a:A)-[e:x]->(b:B) WHERE a.n = 1 OPTIONAL MATCH (b)-[f:y]->(c:A) RETURN a.n, b.n, c.n`, morphs: "HH HI"},
		// A selective edge leaf is the smaller input of its first join, whose
		// other side has only the source: the loop 2->2 meets the check there,
		// as the leaf's own two endpoints.
		{query: `MATCH (a)-[e:y]->(b) WHERE e.w = 0 RETURN *`, morphs: "HH HI IH II"},
	}
}

// cycles is where a join closes a cycle and filters its other side by the
// keys of the first (DESIGN decision 40): eight vertices that each know the
// next three on a ring, so a two-path is expected to be larger than an edge
// and is the closing join's right input. A triangle, a square, a diamond, a
// directed three-cycle of named edges, and one closed by an undirected edge,
// under every setting.
func cycles() (*fixture, []spec) {
	var vs []epgm.Vertex
	var es []epgm.Edge
	for i := range 8 {
		vs = append(vs, vertex(1+i, "N", "n", 1+i))
		for hop := 1; hop <= 3; hop++ {
			es = edges(es, "x", [2]int{1 + i, 1 + (i+hop)%8})
		}
	}
	all := "HH HI IH II"
	return &fixture{name: "cycles", vs: vs, es: es}, []spec{
		{query: `MATCH (a:N)-[:x]->(b:N), (b)-[:x]->(c:N), (a)-[:x]->(c) RETURN *`, morphs: all},
		{query: `MATCH (a:N)-[:x]->(b:N), (b)-[:x]->(c:N), (c)-[:x]->(d:N), (a)-[:x]->(d) RETURN *`, morphs: all},
		{query: `MATCH (a:N)-[:x]->(b:N), (a)-[:x]->(c:N), (b)-[:x]->(d:N), (c)-[:x]->(d) RETURN *`, morphs: all},
		{query: `MATCH (a:N)-[e1:x]->(b:N), (b)-[e2:x]->(c:N), (c)-[e3:x]->(a) RETURN *`, morphs: all},
		{query: `MATCH (a:N)-[e1:x]->(b:N), (b)-[e2:x]->(c:N), (c)-[e3:x]-(a) RETURN *`, morphs: all},
	}
}

// replies is where a closing join filters a variable-length path below it
// (DESIGN decision 40): Q2's shape, whose path's far end is the only join
// variable (an end set), and Q3's, whose path starts from rows that bind a
// join variable (a seed set), forward, reverse and undirected, from no hops
// and from one. Five persons who know the next two on a ring, each with a
// post and two comments; a person's first comment answers the post of one who
// knows them, the second answers the first, and every third comment also
// answers a post. Fay writes only a post, which nobody answers, so her
// messages reach a post only by the path of no hops; nobody is called Zed.
func replies() (*fixture, []spec) {
	names := []string{"Ann", "Bob", "Cid", "Dee", "Eve", "Fay"}
	var vs []epgm.Vertex
	var es []epgm.Edge
	for i, name := range names {
		vs = append(vs, vertex(1+i, "Person", "name", name), vertex(11+i, "Post", "title", fmt.Sprintf("p%d", 11+i)))
		es = edges(es, "hasCreator", [2]int{11 + i, 1 + i})
		if i < 5 {
			es = edges(es, "knows", [2]int{1 + i, 1 + (i+1)%5}, [2]int{1 + i, 1 + (i+2)%5})
		}
	}
	for i := range 10 {
		c := 21 + i
		vs = append(vs, vertex(c, "Comment", "text", fmt.Sprintf("c%d", c)))
		es = edges(es, "hasCreator", [2]int{c, 1 + i%5})
		if i < 5 {
			es = edges(es, "replyOf", [2]int{c, 11 + (i+4)%5})
		} else {
			es = edges(es, "replyOf", [2]int{c, c - 5})
		}
		if i%3 == 2 {
			es = edges(es, "replyOf", [2]int{c, 11 + (i+3)%5})
		}
	}
	es = edges(es, "replyOf", [2]int{30, 27})
	all := "HH HI IH II"
	return &fixture{name: "replies", vs: vs, es: es}, []spec{
		{query: `MATCH (p:Person)<-[:hasCreator]-(m:Comment|Post), (m)-[r:replyOf*0..3]->(post:Post) WHERE p.name = 'Ann' RETURN *`, morphs: all},
		{query: `MATCH (p:Person)<-[:hasCreator]-(m:Comment), (m)-[r:replyOf*1..3]->(post:Post) WHERE p.name = 'Bob' RETURN *`, morphs: all},
		{query: `MATCH (p:Person)<-[:hasCreator]-(m:Comment), (m)-[r:replyOf*1..2]-(x) WHERE p.name = 'Cid' RETURN *`, morphs: all},
		{query: `MATCH (post:Post)<-[r:replyOf*1..3]-(m:Comment), (m)-[:hasCreator]->(p:Person) WHERE p.name = 'Dee' RETURN *`, morphs: all},
		{query: `MATCH (p:Person)<-[:hasCreator]-(m), (m)-[r:replyOf*0..2]->(post:Post) WHERE p.name = 'Fay' RETURN *`, morphs: all, empty: "IH II"},
		{query: `MATCH (p:Person)<-[:hasCreator]-(m), (m)-[r:replyOf*0..2]->(post:Post) WHERE p.name = 'Zed' RETURN *`, morphs: all, empty: "*"},
		{query: `MATCH (a:Person)-[:knows]->(b:Person), (b)<-[:hasCreator]-(c:Comment), (c)-[r:replyOf*1..3]->(post:Post),
			(post)-[:hasCreator]->(a) WHERE a.name = 'Ann' RETURN *`, morphs: all},
		{query: `MATCH (a:Person)-[:knows]->(b:Person), (b)<-[:hasCreator]-(c:Comment), (c)-[r:replyOf*0..3]->(m),
			(m)-[:hasCreator]->(a) WHERE a.name = 'Eve' RETURN *`, morphs: all},
		{query: `MATCH (a:Person)-[:knows]->(b:Person), (b)<-[:hasCreator]-(c:Comment), (c)-[r:replyOf*1..3]-(m:Post),
			(m)-[:hasCreator]->(a) WHERE a.name = 'Dee' RETURN *`, morphs: all},
		{query: `MATCH (a:Person)-[:knows]->(b:Person), (b)<-[:hasCreator]-(c:Comment), (c)-[r:replyOf*1..3]->(post:Post),
			(post)-[:hasCreator]->(a) WHERE a.name = 'Zed' RETURN *`, morphs: all, empty: "*"},
	}
}

// masks is where a row writer's keep-mask has an edge: a column the rest of
// the query reads once more - a cross-variable WHERE, ORDER BY, an OPTIONAL
// MATCH or exists() joining on it - or only through the morphism check, where
// an edge of one type sits next to an alternation, an untyped edge or a path
// that may bind it again. Every case runs under all four settings.
func masks() (*fixture, []spec) {
	vs := []epgm.Vertex{
		vertex(1, "Person", "name", "Ann", "age", 30),
		vertex(2, "Person", "name", "Bob", "age", 25),
		vertex(3, "Person", "name", "Cid", "age", 35),
		vertex(4, "Person", "name", "Dee", "age", 41),
		vertex(10, "Post", "title", "p10"),
		vertex(11, "Post", "title", "p11"),
		vertex(20, "Comment", "text", "c20"),
		vertex(21, "Comment", "text", "c21"),
		vertex(22, "Comment", "text", "c22"),
	}
	es := edges(nil, "knows", [2]int{1, 2}, [2]int{2, 3}, [2]int{3, 1}, [2]int{1, 3}, [2]int{2, 1}, [2]int{3, 4})
	es = edges(es, "likes", [2]int{1, 2}, [2]int{1, 10}, [2]int{2, 10}, [2]int{3, 11}, [2]int{2, 3})
	es = edges(es, "replyOf", [2]int{20, 10}, [2]int{21, 20}, [2]int{22, 21}, [2]int{22, 11})
	es = edges(es, "hasCreator", [2]int{20, 1}, [2]int{21, 2}, [2]int{22, 3}, [2]int{10, 4}, [2]int{11, 1})
	all := "HH HI IH II"
	return &fixture{name: "masks", vs: vs, es: es}, []spec{
		{query: `MATCH (a:Person)-[:knows]->(b:Person) WHERE a.age < b.age RETURN a.name, b.name`, morphs: all},
		{query: `MATCH (a:Person)-[:knows]->(b), (a)-[:knows|likes]->(c) RETURN *`, morphs: all},
		{query: `MATCH (a:Person)-[:knows]->(b), (b)-[]->(c) RETURN *`, morphs: all},
		// A selective start is joined to each edge before the edges meet: the
		// first joins' rows carry an anonymous edge, path or vertex nothing but
		// the check reads, and RETURN * holds them to the reference.
		{query: `MATCH (a:Person {name: 'Ann'})-[:knows]->(b), (a)-[:knows|likes]->(c) RETURN *`, morphs: all},
		{query: `MATCH (a:Person {name: 'Ann'})-[:knows]->(b), (a)-[]->(c) RETURN *`, morphs: all},
		{query: `MATCH (a:Person {name: 'Ann'})-[:knows]->(:Person), (a)-[:likes]->(c:Person) RETURN *`, morphs: all},
		{query: `MATCH (c:Comment {text: 'c22'})-[:replyOf*1..3]->(m), (c)-[:replyOf]->(p) RETURN *`, morphs: all},
		{query: `MATCH (c:Comment {text: 'c22'})-[:replyOf]->(p), (c)-[:replyOf*1..3]->(:Post) RETURN *`, morphs: all},
		{query: `MATCH (a)-[e:knows]->(b), (a)-[]->(c) RETURN *`, morphs: all},
		{query: `MATCH (c:Comment)-[:replyOf*1..3]->(m), (c)-[:replyOf]->(p) RETURN c.text, m`, morphs: all},
		{query: `MATCH (c:Comment)-[r:replyOf*1..3]->(m), (c)-[f:replyOf]->(p) RETURN *`, morphs: all},
		{query: `MATCH (a:Person)-[e:knows]->(b:Person)-[p:likes*1..2]->(x) RETURN *`, morphs: all},
		{query: `MATCH (a:Person)-[e:knows]->(b:Person)-[:likes]->(x) RETURN a, e`, morphs: all},
		{query: `MATCH (c:Comment)-[p:replyOf*1..2]->(m:Post)<-[:hasCreator]-(x) RETURN p`, morphs: all, empty: "*"},
		{query: `MATCH (c:Comment)-[p:replyOf*1..2]->(m:Post)-[:hasCreator]->(x) RETURN p, x.name`, morphs: all},
		{query: `MATCH (a:Person)-[:knows]->(b:Person) RETURN a.name ORDER BY b.age DESC, a.name`, morphs: all},
		{query: `MATCH (a:Person)-[:knows]->(b:Person) OPTIONAL MATCH (b)-[:likes]->(p:Post) RETURN a.name, p.title`, morphs: all},
		{query: `MATCH (a:Person)-[:knows]->(b:Person) WHERE exists((b)-[:likes]->(:Post)) RETURN a.name`, morphs: all},
		{query: `MATCH (a:Person)-[:knows]->(b:Person) WHERE NOT exists((b)-[:likes]->(:Person)) RETURN a.name, b.name`, morphs: all},
	}
}

// wide is what a cluster's sender has to write across more than one fill of
// its 64 KiB write buffer. Four Huge vertices carry a 200 KiB string each, a
// row longer than the buffer, through the shuffles of a join and in the result
// frames. Thirty-two W vertices carry a text that grows fourfold from one
// partition to the next, 2 KiB to 128 KiB, so the buckets a partition owes
// another reach hundreds of KiB and whichever partitions a process owns, what
// it sends its peer and what it receives are of different sizes. The joins
// over them shuffle both inputs back to back: a process whose transport
// returned once the peer's smaller frame had arrived, before its own was
// written, would write the rest of the first shuffle's buckets through the
// route the second one writes over it.
func wide() (*fixture, []spec) {
	var vs []epgm.Vertex
	var es []epgm.Edge
	for i := 1; i <= 4; i++ {
		vs = append(vs, vertex(i, "Huge", "n", i, "blob", strings.Repeat(fmt.Sprintf("%c%07d", 'a'+i, i), 200<<10/8)))
	}
	const w = 32
	for i := 0; i < w; i++ {
		size := 2 << 10 << (2 * (4 * i / w)) // a quarter of the label is one partition
		vs = append(vs, vertex(100+i, "W", "n", i, "text", strings.Repeat(fmt.Sprintf("w%07d", i), size/8)))
		es = edges(es, "r", [2]int{100 + i, 100 + (5*i+1)%w})
	}
	es = edges(es, "has", [2]int{1, 100}, [2]int{2, 109}, [2]int{3, 118}, [2]int{4, 127}, [2]int{1, 131}, [2]int{3, 104})
	return &fixture{name: "wide", vs: vs, es: es}, []spec{
		{query: `MATCH (h:Huge)-[:has]->(w:W) RETURN h.n, h.blob, w.n`},
		{query: `MATCH (a:W)-[:r]->(b:W) RETURN a.n, a.text, b.text`},
		{query: `MATCH (a:W)-[:r]->(b:W)-[:r]->(c:W) RETURN a.n, b.text, c.n`, morphs: "HH HI"},
	}
}

// ldbcFixture is the LDBC-like social network at SF 0.02 with the paper's six
// queries - the operational three at a common, a medium and a rare first
// name - and the shapes whose shuffles cross a cluster's sockets.
func ldbcFixture() (*fixture, []spec) {
	d := ldbc.Generate(dataflow.NewEnv(dataflow.DefaultConfig(1)), ldbc.Config{ScaleFactor: 0.02, Seed: 4})
	f := &fixture{name: "ldbc", vs: d.Graph.Vertices.Collect(), es: d.Graph.Edges.Collect()}
	var specs []spec
	// A parameterized query runs at each selectivity; emptyAt names the ones
	// at which it matches nothing.
	common, medium, rare := d.FirstNamesBySelectivity()
	names := [3]string{common, medium, rare}
	selective := func(query string, emptyAt ...int) {
		for i, name := range names {
			s := spec{query: query, params: map[string]any{"firstName": name}}
			if slices.Contains(emptyAt, i) {
				s.empty = "*"
			}
			specs = append(specs, s)
		}
	}
	for _, q := range benchkit.AllQueries {
		switch {
		case !q.Operational():
			specs = append(specs, spec{query: q.Text()})
		case q == benchkit.Q3:
			selective(q.Text(), 2)
		default:
			selective(q.Text())
		}
	}
	specs = append(specs,
		spec{query: `MATCH (p:Person) RETURN *`},
		spec{query: `MATCH (p:Person)-[:knows]->(q:Person) RETURN *`},
		spec{query: `MATCH (p1:Person)-[:knows]->(p2:Person), (p2)-[:knows]->(p3:Person) RETURN *`},
		spec{query: `MATCH (p1:Person)-[:knows]->(p2:Person), (p2)-[:knows]->(p3:Person), (p1)-[:knows]->(p3) RETURN *`},
		spec{query: `MATCH (person:Person)-[:isLocatedIn]->(city:City), (person)-[:studyAt]->(u:University) RETURN *`},
		spec{query: `MATCH (p:Person) OPTIONAL MATCH (p)-[s:studyAt]->(u:University) RETURN *`},
		spec{query: `MATCH (p:Person)-[:knows]->(q:Person) WHERE p.firstName = 'nobody is called this' RETURN *`, empty: "*"},
	)
	selective(`MATCH (person:Person)<-[:hasCreator]-(message:Comment|Post) WHERE person.firstName = $firstName RETURN *`)
	selective(`MATCH (p1:Person)-[:knows]->(p2:Person), (p2)<-[:hasCreator]-(c:Comment) WHERE p1.firstName = $firstName RETURN *`)
	selective(`MATCH (p:Person)-[:isLocatedIn]->(city:City), (p)-[s:studyAt]->(u:University) WHERE s.classYear > 2010 AND p.firstName = $firstName RETURN *`, 1)
	selective(`MATCH (p:Person)-[e:knows*1..3]->(q:Person) WHERE p.firstName = $firstName RETURN *`)
	selective(`MATCH (p:Person)<-[e:knows*1..3]-(q:Person) WHERE p.firstName = $firstName RETURN *`)
	selective(`MATCH (p:Person), (u:University) WHERE p.firstName = $firstName RETURN *`)
	return f, specs
}
