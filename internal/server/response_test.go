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

// TestResponseRowsParity: what frames the rows of a /query body. An execution
// nobody wrote out is not cached and its body announces its length; the hit
// after it is, whole, what encoding/json makes of the response as one struct
// - a hit executes nothing, so its envelope is all zeroes but the elapsed
// time; and an execution on a cluster carries the cluster block. That the
// rows themselves are Result.Rows() as core.AppendJSONValue writes them -
// executed, on the hit and on a cluster, whatever the RETURN clause - is
// internal/conformance's http modes, held to the session's rows.
func TestResponseRowsParity(t *testing.T) {
	const q = `MATCH (a:Person)-[:knows]->(b:Person) RETURN a.name, count(*) ORDER BY a.name`
	g := testGraph()
	h := New(session.New(g, session.Options{}), Config{})
	if miss := queryBody(t, h, q); !bytes.Contains(miss, []byte(`"fromResultCache":false`)) {
		t.Errorf("an execution nobody wrote out was cached: %s", miss)
	}
	hit := queryBody(t, h, q)
	var timed struct{ ElapsedMs float64 }
	if err := json.Unmarshal(hit, &timed); err != nil {
		t.Fatalf("%v in %s", err, hit)
	}
	whole := oracleJSON(t, queryResponse{Columns: []string{"a.name", "count(*)"}, Rows: rowsSpan(t, hit),
		queryEnvelope: queryEnvelope{Count: 3, FromResultCache: true, ElapsedMs: timed.ElapsedMs}})
	if !bytes.Equal(hit, whole) {
		t.Errorf("result-cache hit body\n got %s\nwant %s", hit, whole)
	}

	coord, err := cluster.NewCoordinator(startTwoWorkers(t, session.NewGraphData(g)), cluster.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	if remote := queryBody(t, New(session.New(g, session.Options{Remote: coord}), Config{}), q); !bytes.Contains(remote, []byte(`"cluster":{`)) {
		t.Errorf("no cluster block in %s", remote)
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
