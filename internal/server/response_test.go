package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gradoop/internal/cluster"
	"gradoop/internal/dataflow"
	"gradoop/internal/epgm"
	"gradoop/internal/session"
)

// parityGraph has what the output path must get right: strings that need
// escaping, ints on both sides of 2^53, floats in plain and exponent form,
// missing properties, and knows chains long enough for paths.
func parityGraph() *epgm.LogicalGraph {
	env := dataflow.NewEnv(dataflow.DefaultConfig(4))
	person := func(name string, age int64, score float64) epgm.Vertex {
		return epgm.Vertex{ID: epgm.NewID(), Label: "Person", Properties: epgm.Properties{}.
			Set("name", epgm.PVString(name)).Set("age", epgm.PVInt(age)).Set("score", epgm.PVFloat(score))}
	}
	vs := []epgm.Vertex{
		person("Alice", 30, 0.5),
		person("Bob \"the\" <b>", 1<<53+1, 1e-9),
		person("Eve\\\n\x01", -(1 << 53), 1e21),
		person("Zo\xc3\xab \xe2\x80\xa8 \xff", 41, math.Copysign(0, -1)),
		{ID: epgm.NewID(), Label: "Person", Properties: epgm.Properties{}.Set("name", epgm.PVString("Nick"))},
	}
	e := func(s, t int) epgm.Edge {
		return epgm.Edge{ID: epgm.NewID(), Label: "knows", Source: vs[s].ID, Target: vs[t].ID}
	}
	return epgm.GraphFromSlices(env, "parity", vs,
		[]epgm.Edge{e(0, 1), e(1, 2), e(2, 3), e(3, 0), e(0, 2), e(4, 0)})
}

var parityQueries = []string{
	`MATCH (a:Person)-[:knows]->(b:Person) RETURN a.name, b.age, b.score`,
	`MATCH (a:Person)-[e:knows]->(b:Person) RETURN *`,
	`MATCH (a:Person)-[p:knows*1..2]->(b:Person) RETURN a.name, p, b`,
	`MATCH (a:Person) OPTIONAL MATCH (a)-[e:knows]->(b:Person) WHERE b.age > 35 RETURN a.name, e, b, b.name`,
	`MATCH (a:Person)-[:knows]->(b:Person) RETURN a.name, count(*), max(b.age), avg(b.score)`,
	`MATCH (a:Person)-[:knows]->(b:Person) RETURN DISTINCT b.name`,
	`MATCH (a:Person)-[:knows]->(b:Person) RETURN a.name, b.name ORDER BY b.age DESC, a.name SKIP 1 LIMIT 3`,
	`MATCH (a:Person)-[:knows]->(b:Person) RETURN a.name, b.name SKIP 2 LIMIT 3`,
	`MATCH (a:Person) WHERE a.age > 100 AND a.age < 0 RETURN a.name, a.age`,
	`MATCH (a:Person)<-[p:knows*1..3]-(b:Person) RETURN a.name, p, b.name`,
	`MATCH (a:Person)-[:knows]->(b:Person) WHERE a.age > 100 AND a.age < 0 RETURN a, b`,
	`MATCH (a:Person), (b:Person) WHERE a.age > 35 AND b.age < 30 RETURN a.name, b.name`,
}

// queryBody posts one query to the handler and returns the raw body.
func queryBody(t *testing.T, h http.Handler, query string) []byte {
	t.Helper()
	b, err := json.Marshal(map[string]any{"query": query})
	if err != nil {
		t.Fatal(err)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(b)))
	if rr.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", query, rr.Code, rr.Body)
	}
	if got, want := rr.Header().Get("Content-Length"), fmt.Sprint(rr.Body.Len()); got != want {
		t.Fatalf("%s: Content-Length %s for a body of %s bytes", query, got, want)
	}
	return rr.Body.Bytes()
}

// TestResponseRowsParity: whatever the RETURN clause, the partition count
// and the way the response came about - executed in process, served from the
// result cache, executed on a 2-worker cluster - the body's rows bytes are
// the values of Result.Rows() as core.AppendJSONValue writes them, and the
// whole body is what encoding/json makes of the response as one struct.
func TestResponseRowsParity(t *testing.T) {
	g := parityGraph()
	data := session.NewGraphData(g)
	for _, partitions := range []int{1, 4} {
		local := session.New(g, session.Options{Workers: partitions})
		localHandler := New(local, Config{})

		coord, err := cluster.NewCoordinator(startTwoWorkers(t, data), cluster.Options{Workers: partitions})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(coord.Close)
		clusterHandler := New(session.New(g, session.Options{Workers: partitions, Remote: coord}), Config{})

		for _, q := range parityQueries {
			name := fmt.Sprintf("partitions=%d %s", partitions, q)
			resp, err := local.Execute(session.Request{Query: q})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := oracleRows(resp.Result.Rows())
			if !bytes.Equal(resp.RowsJSON, want) {
				t.Errorf("%s: session rows\n got %s\nwant %s", name, resp.RowsJSON, want)
			}

			hit := queryBody(t, localHandler, q)
			if got := rowsSpan(t, hit); !bytes.Equal(got, want) {
				t.Errorf("%s: result-cache hit rows\n got %s\nwant %s", name, got, want)
			}
			// A hit executes nothing, so its envelope is all zeroes but the
			// elapsed time: the whole body can be held to the old struct.
			var timed struct{ ElapsedMs float64 }
			if err := json.Unmarshal(hit, &timed); err != nil {
				t.Fatalf("%s: %v in %s", name, err, hit)
			}
			oracle := queryResponse{Columns: resp.Result.Columns(), Rows: want, queryEnvelope: queryEnvelope{
				Count: resp.Count, FromResultCache: true, ElapsedMs: timed.ElapsedMs}}
			if whole := oracleJSON(t, oracle); !bytes.Equal(hit, whole) {
				t.Errorf("%s: result-cache hit body\n got %s\nwant %s", name, hit, whole)
			}

			remote := queryBody(t, clusterHandler, q)
			if got := rowsSpan(t, remote); !bytes.Equal(got, want) {
				t.Errorf("%s: cluster rows\n got %s\nwant %s", name, got, want)
			}
			if !bytes.Contains(remote, []byte(`"cluster":{`)) {
				t.Errorf("%s: no cluster block in %s", name, remote)
			}
		}
	}
}

// TestEmptyResultKeepsColumns: the column names come from the RETURN clause,
// so a query that matches nothing still says what its columns are.
func TestEmptyResultKeepsColumns(t *testing.T) {
	h := New(session.New(testGraph(), session.Options{}), Config{})
	for _, fromCache := range []bool{false, true} {
		body := queryBody(t, h, `MATCH (a:Person) WHERE a.name = 'Nobody' RETURN a.name, a AS who`)
		prefix := `{"columns":["a.name","who"],"rows":[],"count":0,`
		if !strings.HasPrefix(string(body), prefix) {
			t.Fatalf("fromCache=%v: body %s, want prefix %s", fromCache, body, prefix)
		}
		if !strings.Contains(string(body), fmt.Sprintf(`"fromResultCache":%v`, fromCache)) {
			t.Fatalf("fromCache=%v: body %s", fromCache, body)
		}
	}
}

// TestNonFiniteFloatIsNull: JSON has no NaN or infinity. Such a cell used to
// fail the encoder after the 200 header was out, leaving an empty body; it
// is written as null and the rest of the response is intact.
func TestNonFiniteFloatIsNull(t *testing.T) {
	env := dataflow.NewEnv(dataflow.DefaultConfig(2))
	g := epgm.GraphFromSlices(env, "nan", []epgm.Vertex{
		{ID: 1, Label: "M", Properties: epgm.Properties{}.Set("x", epgm.PVFloat(math.NaN())).Set("k", epgm.PVInt(1))},
		{ID: 2, Label: "M", Properties: epgm.Properties{}.Set("x", epgm.PVFloat(math.Inf(1))).Set("k", epgm.PVInt(2))},
		{ID: 3, Label: "M", Properties: epgm.Properties{}.Set("x", epgm.PVFloat(math.Inf(-1))).Set("k", epgm.PVInt(3))},
		{ID: 4, Label: "M", Properties: epgm.Properties{}.Set("x", epgm.PVFloat(2.5)).Set("k", epgm.PVInt(4))},
	}, nil)
	h := New(session.New(g, session.Options{}), Config{})
	for _, q := range []string{
		`MATCH (m:M) RETURN m.x, m.k ORDER BY m.k`, // materialised rows
		`MATCH (m:M) RETURN m.x, m.k`,              // streamed rows
	} {
		var out struct {
			Columns []string
			Rows    [][]any
			Count   int64
		}
		body := queryBody(t, h, q)
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("%s: %v in %q", q, err, body)
		}
		if out.Count != 4 || len(out.Rows) != 4 || len(out.Columns) != 2 {
			t.Fatalf("%s: body %s", q, body)
		}
		for _, row := range out.Rows {
			if finite := row[1].(float64) == 4; (row[0] == nil) == finite {
				t.Fatalf("%s: row %v: non-finite floats must be null, finite ones numbers", q, row)
			}
		}
	}
}

// BenchmarkQueryCacheHit is the whole server-side cost of a request the
// result cache answers: decode, session lookup, two small buffers around the
// entry's bytes (make alloc-guard pins its allocs/op).
func BenchmarkQueryCacheHit(b *testing.B) {
	h := New(session.New(testGraph(), session.Options{}), Config{})
	body := []byte(`{"query":"MATCH (a:Person)-[:knows]->(b) RETURN a.name, b.name"}`)
	serve := func() {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		if rr.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rr.Code, rr.Body)
		}
	}
	serve() // the miss that fills the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}
