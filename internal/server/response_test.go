package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"gradoop/internal/cluster"
	"gradoop/internal/core"
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
// result cache the execution filled, executed on a 2-worker cluster - the
// body's rows bytes are the values of Result.Rows() as core.AppendJSONValue
// writes them, and the whole body is what encoding/json makes of the response
// as one struct.
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
			// Executed and not written: the oracle's values, and no cache entry.
			resp, err := local.Execute(session.Request{Query: q})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := oracleRows(resp.Result.Rows())

			miss := queryBody(t, localHandler, q)
			if got := rowsSpan(t, miss); !bytes.Equal(got, want) {
				t.Errorf("%s: executed rows\n got %s\nwant %s", name, got, want)
			}
			if !bytes.Contains(miss, []byte(`"fromResultCache":false`)) {
				t.Errorf("%s: an execution nobody wrote out was cached: %s", name, miss)
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

// namesGraph is n persons with 60-byte names: RETURN a.name, a answers about
// n x 75 bytes of rows.
func namesGraph(n int) *epgm.LogicalGraph {
	vs := make([]epgm.Vertex, n)
	for i := range vs {
		name := fmt.Sprintf("%06d%s", i, strings.Repeat("n", 54))
		vs[i] = epgm.Vertex{ID: epgm.ID(i + 1), Label: "Person",
			Properties: epgm.Properties{}.Set("name", epgm.PVString(name))}
	}
	return epgm.GraphFromSlices(dataflow.NewEnv(dataflow.DefaultConfig(4)), "names", vs, nil)
}

const namesQuery = `MATCH (a:Person) RETURN a.name, a`

// socketBody posts one query over a real connection and returns the response
// with its body read.
func socketBody(t *testing.T, url, query string) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(map[string]any{"query": query})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d, %v: %.200s", query, resp.StatusCode, err, body)
	}
	return resp, body
}

// TestBigBodyFraming: over a socket, a body that filled the chunk leaves
// without a Content-Length, chunked, when it is executed - in process and on
// a cluster - and with one when the cache serves it; the three carry the same
// rows, which are the oracle's. A body that never filled the chunk announces
// its length on its first execution.
func TestBigBodyFraming(t *testing.T) {
	g := namesGraph(4000)
	local := session.New(g, session.Options{})
	ts := httptest.NewServer(New(local, Config{}))
	defer ts.Close()
	coord, err := cluster.NewCoordinator(startTwoWorkers(t, session.NewGraphData(g)), cluster.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	cs := httptest.NewServer(New(session.New(g, session.Options{Remote: coord}), Config{}))
	defer cs.Close()

	oracle, err := local.Execute(session.Request{Query: namesQuery})
	if err != nil {
		t.Fatal(err)
	}
	want := oracleRows(oracle.Result.Rows())
	if len(want) < 4*core.RowsChunk {
		t.Fatalf("setup: %d bytes of rows are not several chunks", len(want))
	}

	for _, c := range []struct {
		name    string
		url     string
		chunked bool
		cached  bool
	}{
		{"executed", ts.URL, true, false},
		{"served from the cache", ts.URL, false, true},
		{"executed on the cluster", cs.URL, true, false},
	} {
		resp, body := socketBody(t, c.url, namesQuery)
		if got := rowsSpan(t, body); !bytes.Equal(got, want) {
			t.Errorf("%s: rows differ from the oracle's (%d and %d bytes)", c.name, len(got), len(want))
		}
		var out struct {
			Rows            [][]any
			Count           int64
			FromResultCache bool
		}
		if err := json.Unmarshal(body, &out); err != nil || out.Count != 4000 || len(out.Rows) != 4000 || out.FromResultCache != c.cached {
			t.Errorf("%s: %v, count %d, %d rows, fromResultCache %v", c.name, err, out.Count, len(out.Rows), out.FromResultCache)
		}
		if c.chunked {
			if resp.ContentLength != -1 || len(resp.TransferEncoding) != 1 || resp.TransferEncoding[0] != "chunked" {
				t.Errorf("%s: Content-Length %d, Transfer-Encoding %v; want none and chunked", c.name, resp.ContentLength, resp.TransferEncoding)
			}
		} else if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %d, Transfer-Encoding %v for a body of %d bytes", c.name, resp.ContentLength, resp.TransferEncoding, len(body))
		}
	}

	resp, body := socketBody(t, ts.URL, namesQuery+` LIMIT 1`)
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 || !bytes.Contains(body, []byte(`"fromResultCache":false`)) {
		t.Errorf("one row, executed: Content-Length %d, Transfer-Encoding %v, body %s", resp.ContentLength, resp.TransferEncoding, body)
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

// smallBufferListener gives every accepted connection a few kilobytes of
// send buffer, so that a reader who stops reading stalls the writer after
// that much and not after whatever the kernel was willing to hold.
type smallBufferListener struct{ net.Listener }

func (l smallBufferListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetWriteBuffer(8 << 10)
	}
	return c, err
}

// TestStalledReaderReleasesTheHandler: a client that sends a query with a big
// answer and never reads it holds its handler until the request's deadline -
// its own timeout or the session's default - and no longer: the write fails,
// the handler returns, nothing is left running, cached or leaked.
func TestStalledReaderReleasesTheHandler(t *testing.T) {
	const timeout = 400 * time.Millisecond
	g := namesGraph(22_000) // 1.6 MB of rows, what q4 answers at SF 3
	for name, c := range map[string]struct {
		opts session.Options
		body string
	}{
		"the request's timeout": {session.Options{}, `{"query":"` + namesQuery + `","timeout":"400ms"}`},
		"the session's default": {session.Options{DefaultTimeout: timeout}, `{"query":"` + namesQuery + `"}`},
	} {
		before := runtime.NumGoroutine()
		sess := session.New(g, c.opts)
		srv := New(sess, Config{})
		served := make(chan time.Duration, 1)
		ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			srv.ServeHTTP(w, r)
			served <- time.Since(start)
		}))
		ts.Listener = smallBufferListener{ts.Listener}
		ts.Start()

		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.(*net.TCPConn).SetReadBuffer(8 << 10)
		if _, err := fmt.Fprintf(conn, "POST /query HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(c.body), c.body); err != nil {
			t.Fatal(err)
		}
		select {
		case took := <-served:
			if took < timeout/2 {
				t.Errorf("%s: the handler returned after %v: the reader did not stall it", name, took)
			}
		case <-time.After(10 * timeout):
			t.Fatalf("%s: the handler is still writing to a reader that stopped reading %v ago", name, 10*timeout)
		}
		if m := sess.Metrics(); m.InFlight != 0 || m.Queued != 0 || m.ResultEntries != 0 {
			t.Errorf("%s: %d in flight, %d queued, %d results cached", name, m.InFlight, m.Queued, m.ResultEntries)
		}
		conn.Close()
		ts.Close()
		sess.Close()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("%s: %d goroutines before, %d after", name, before, n)
		}
	}
}

// TestTimedOutQueryIsAnswered: the write deadline bounds the delivery of an
// answer, not the request. A query that used its whole timeout - the
// request's or the session's default - still gets its 504 and the body that
// says so over a real connection, and the deadline does not outlive its
// request on a kept-alive connection (net/http clears it; this holds it to that).
func TestTimedOutQueryIsAnswered(t *testing.T) {
	const timeout = 50 * time.Millisecond
	const crossJoin = `MATCH (a:Person), (b:Person) RETURN count(*)` // 16 M pairs
	g := namesGraph(4000)
	for name, c := range map[string]struct {
		opts session.Options
		body string
	}{
		"the request's timeout": {session.Options{}, `{"query":"` + crossJoin + `","timeout":"50ms"}`},
		"the session's default": {session.Options{DefaultTimeout: timeout}, `{"query":"` + crossJoin + `"}`},
	} {
		sess := session.New(g, c.opts)
		ts := httptest.NewServer(New(sess, Config{}))
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatalf("%s: a timed-out query got no answer: %v", name, err)
		}
		var out errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusGatewayTimeout || out.Kind != "timeout" {
			t.Errorf("%s: status %d, kind %q, %v", name, resp.StatusCode, out.Kind, err)
		}
		resp.Body.Close()

		// The same connection, after the deadline the 504 was written under.
		time.Sleep(2 * timeout)
		resp, err = http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatalf("%s: the next request on the connection: %v", name, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: /healthz after the deadline: status %d", name, resp.StatusCode)
		}
		resp.Body.Close()
		ts.Close()
		sess.Close()
	}
}

// discardWriter is a connection nobody reads from the far end of: it takes
// the response, counts it and keeps nothing.
type discardWriter struct {
	header http.Header
	code   int
	n      int64
}

func (w *discardWriter) Header() http.Header              { return w.header }
func (w *discardWriter) WriteHeader(code int)             { w.code = code }
func (w *discardWriter) Write(p []byte) (int, error)      { w.n += int64(len(p)); return len(p), nil }
func (w *discardWriter) SetWriteDeadline(time.Time) error { return nil }

// BenchmarkQueryExecuted is the output path's share of a request that is
// executed: what serving 20 000 rows over HTTP allocates beyond what
// executing the same query allocates, per row (make alloc-guard pins both
// numbers). The rows go from the result's slabs to the writer through one
// reused chunk, so the share is the request's decoding and two small
// buffers - nothing that grows with the rows.
func BenchmarkQueryExecuted(b *testing.B) {
	const rows = 20_000
	sess := session.New(namesGraph(rows), session.Options{NoResultCache: true})
	h := New(sess, Config{})
	body := []byte(`{"query":"` + namesQuery + `"}`)
	serve := func() {
		w := &discardWriter{header: http.Header{}}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		if w.code != http.StatusOK || w.n < rows*60 || w.header.Get("Content-Length") != "" {
			b.Fatalf("status %d, %d bytes, Content-Length %q", w.code, w.n, w.header.Get("Content-Length"))
		}
	}
	execute := func() {
		if r, err := sess.Execute(session.Request{Query: namesQuery}); err != nil || r.Count != rows {
			b.Fatalf("%+v, %v", r, err)
		}
	}
	cost := func(f func()) (objects, bytes float64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < b.N; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
	}
	serve() // compiles the plan, makes the spare chunk
	b.ResetTimer()
	servedObjects, servedBytes := cost(serve)
	b.StopTimer()
	executedObjects, executedBytes := cost(execute)
	perRow := float64(b.N) * rows
	b.ReportMetric((servedObjects-executedObjects)/perRow, "allocs/row")
	b.ReportMetric((servedBytes-executedBytes)/perRow, "B/row")
}
