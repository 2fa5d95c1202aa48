package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gradoop/internal/dataflow"
	"gradoop/internal/epgm"
	"gradoop/internal/obs"
	"gradoop/internal/session"
)

func testGraph() *epgm.LogicalGraph {
	env := dataflow.NewEnv(dataflow.DefaultConfig(4))
	person := func(name string) epgm.Vertex {
		return epgm.Vertex{ID: epgm.NewID(), Label: "Person",
			Properties: epgm.Properties{}.Set("name", epgm.PVString(name))}
	}
	alice, bob, eve := person("Alice"), person("Bob"), person("Eve")
	e := func(s, t epgm.Vertex) epgm.Edge {
		return epgm.Edge{ID: epgm.NewID(), Label: "knows", Source: s.ID, Target: t.ID}
	}
	return epgm.GraphFromSlices(env, "g",
		[]epgm.Vertex{alice, bob, eve},
		[]epgm.Edge{e(alice, bob), e(bob, eve), e(eve, alice)})
}

// newTestServer wires a registry through both session and server so tests
// exercise the fully instrumented path end to end.
func newTestServer(t *testing.T, opts session.Options) *httptest.Server {
	t.Helper()
	r := obs.NewRegistry()
	opts.Metrics = r
	ts := httptest.NewServer(New(session.New(testGraph(), opts), Config{Metrics: r}))
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp, out
}

// TestQueryPost: POST /query executes and returns rows, a count and cache
// flags; the repeat is served from the result cache.
func TestQueryPost(t *testing.T) {
	ts := newTestServer(t, session.Options{})
	body := map[string]any{"query": "MATCH (a:Person)-[:knows]->(b) RETURN a.name, b.name"}

	resp, out := postJSON(t, ts.URL+"/query", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status=%d body=%v", resp.StatusCode, out)
	}
	if resp.Header.Get("X-Trace-Id") == "" {
		t.Fatal("missing X-Trace-Id header")
	}
	if out["count"].(float64) != 3 {
		t.Fatalf("count=%v want 3", out["count"])
	}
	if len(out["rows"].([]any)) != 3 {
		t.Fatalf("rows=%v", out["rows"])
	}
	if out["fromResultCache"].(bool) {
		t.Fatal("first request claims a result-cache hit")
	}

	_, out2 := postJSON(t, ts.URL+"/query", body)
	if !out2["fromResultCache"].(bool) {
		t.Fatal("repeat request missed the result cache")
	}
}

// TestQueryGetWithParams: GET /query decodes q= and param.NAME= pairs with
// CLI type inference.
func TestQueryGetWithParams(t *testing.T) {
	ts := newTestServer(t, session.Options{})
	u := ts.URL + "/query?q=" + strings.ReplaceAll(
		"MATCH (a:Person) WHERE a.name = $name RETURN a.name", " ", "+") + "&param.name=Alice"
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status=%d body=%v", resp.StatusCode, out)
	}
	if out["count"].(float64) != 1 {
		t.Fatalf("count=%v want 1", out["count"])
	}
	rows := out["rows"].([]any)
	if v := rows[0].([]any)[0].(string); v != "Alice" {
		t.Fatalf("row value %q want Alice", v)
	}
}

// TestErrorMapping: invalid queries are 400 with a structured kind; a bad
// body is 400; wrong method 400.
func TestErrorMapping(t *testing.T) {
	ts := newTestServer(t, session.Options{})
	resp, out := postJSON(t, ts.URL+"/query", map[string]any{"query": "MATCH ("})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("parse error status=%d", resp.StatusCode)
	}
	if out["kind"] != "invalid" {
		t.Fatalf("kind=%v want invalid", out["kind"])
	}
	resp, out = postJSON(t, ts.URL+"/query",
		map[string]any{"query": "MATCH (a:Person) WHERE a.name = $x RETURN a.name"})
	if resp.StatusCode != http.StatusBadRequest || out["kind"] != "invalid" {
		t.Fatalf("missing param: status=%d kind=%v", resp.StatusCode, out["kind"])
	}
}

// TestExplainEndpoint: /explain renders a plan and fingerprint without
// executing; /query on the same text reports the same fingerprint.
func TestExplainEndpoint(t *testing.T) {
	ts := newTestServer(t, session.Options{})
	q := "MATCH (a:Person)-[:knows]->(b) RETURN a.name"
	resp, out := postJSON(t, ts.URL+"/explain", map[string]any{"query": q})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status=%d body=%v", resp.StatusCode, out)
	}
	plan := out["plan"].(string)
	if !strings.Contains(plan, "FilterAndProjectEdges") {
		t.Fatalf("plan:\n%s", plan)
	}
	fp := out["fingerprint"].(string)
	_, qout := postJSON(t, ts.URL+"/query", map[string]any{"query": q})
	if qout["fingerprint"].(string) != fp {
		t.Fatalf("fingerprints differ: %v vs %v", qout["fingerprint"], fp)
	}
}

// TestAnalyzeEndpoint: /analyze returns the EXPLAIN ANALYZE rendering with
// actual cardinalities.
func TestAnalyzeEndpoint(t *testing.T) {
	ts := newTestServer(t, session.Options{})
	resp, out := postJSON(t, ts.URL+"/analyze",
		map[string]any{"query": "MATCH (a:Person)-[:knows]->(b) RETURN a.name"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status=%d body=%v", resp.StatusCode, out)
	}
	analyzed := out["analyzedPlan"].(string)
	if !strings.Contains(analyzed, "act=") {
		t.Fatalf("analyzed plan lacks actual cardinalities:\n%s", analyzed)
	}
}

// TestChromeTraceCapture: trace:true returns an embedded Chrome trace with
// trace events.
func TestChromeTraceCapture(t *testing.T) {
	ts := newTestServer(t, session.Options{})
	resp, out := postJSON(t, ts.URL+"/query",
		map[string]any{"query": "MATCH (a:Person) RETURN a.name", "trace": true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status=%d", resp.StatusCode)
	}
	trace, ok := out["chromeTrace"].(map[string]any)
	if !ok {
		t.Fatalf("chromeTrace missing or malformed: %T", out["chromeTrace"])
	}
	if events, ok := trace["traceEvents"].([]any); !ok || len(events) == 0 {
		t.Fatal("chromeTrace has no events")
	}
}

// TestMetricsJSONEndpoint: /metrics.json reports counters and hit ratios
// in both formats.
func TestMetricsJSONEndpoint(t *testing.T) {
	ts := newTestServer(t, session.Options{})
	body := map[string]any{"query": "MATCH (a:Person) RETURN a.name"}
	postJSON(t, ts.URL+"/query", body)
	postJSON(t, ts.URL+"/query", body)

	resp, out := postJSON(t, ts.URL+"/query", body) // third: result hit
	if resp.StatusCode != http.StatusOK || !out["fromResultCache"].(bool) {
		t.Fatalf("warm-up failed: %v", out)
	}
	mresp, err := http.Get(ts.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m["queries"].(float64) != 3 {
		t.Fatalf("queries=%v want 3", m["queries"])
	}
	if m["resultHitRatio"].(float64) <= 0 {
		t.Fatalf("resultHitRatio=%v want > 0", m["resultHitRatio"])
	}
	tresp, err := http.Get(ts.URL + "/metrics.json?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	var sb strings.Builder
	if _, err := copyAll(&sb, tresp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "plan cache:") || !strings.Contains(sb.String(), "ratio=") {
		t.Fatalf("text metrics:\n%s", sb.String())
	}
}

// TestPrometheusEndpoint: after a small workload /metrics serves a parsable
// Prometheus text exposition containing series from all three layers —
// engine (stage histograms), session (query and cache counters, admission
// wait) and server (per-endpoint request counts and latency).
func TestPrometheusEndpoint(t *testing.T) {
	ts := newTestServer(t, session.Options{})
	body := map[string]any{"query": "MATCH (a:Person)-[:knows]->(b) RETURN a.name, b.name"}
	postJSON(t, ts.URL+"/query", body)
	postJSON(t, ts.URL+"/query", body)
	postJSON(t, ts.URL+"/query", map[string]any{"query": "MATCH (a:Person"}) // 400

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type=%q want Prometheus text exposition", ct)
	}
	var sb strings.Builder
	if _, err := copyAll(&sb, mresp); err != nil {
		t.Fatal(err)
	}
	exp := sb.String()
	checkExposition(t, exp)
	for _, series := range []string{
		"gradoop_queries_total 3",
		`gradoop_query_errors_total{kind="invalid"} 1`,
		`gradoop_result_cache_total{outcome="hit"} 1`,
		`gradoop_plan_cache_total{outcome=`,
		"gradoop_admission_wait_seconds_count",
		`gradoop_query_duration_seconds{quantile="0.99"}`,
		`gradoop_stage_duration_seconds{kind=`,
		"gradoop_stages_total",
		`gradoop_http_requests_total{endpoint="/query",code="200"} 2`,
		`gradoop_http_requests_total{endpoint="/query",code="400"} 1`,
		`gradoop_http_request_seconds{endpoint="/query",quantile="0.5"}`,
	} {
		if !strings.Contains(exp, series) {
			t.Errorf("exposition missing %q:\n%s", series, exp)
		}
	}
}

// checkExposition asserts every line of a text exposition is structurally
// valid format 0.0.4: comments are HELP/TYPE, samples are "name[{labels}]
// value" with a parsable float.
func checkExposition(t *testing.T, exp string) {
	t.Helper()
	if exp == "" {
		t.Fatal("empty exposition")
	}
	for _, line := range strings.Split(strings.TrimRight(exp, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if strings.HasPrefix(line, "#") || line == "" {
			t.Errorf("bad exposition line %q", line)
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Errorf("sample line without value: %q", line)
			continue
		}
		if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
			t.Errorf("unparsable sample value in %q: %v", line, err)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Errorf("unclosed label set in %q", line)
			}
			name = name[:i]
		}
		for _, r := range name {
			if !(r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')) {
				t.Errorf("bad metric name in %q", line)
				break
			}
		}
	}
}

// TestJobsEndpoint: /jobs is empty when idle and lists an in-flight query
// with its running state and current stage while one executes.
func TestJobsEndpoint(t *testing.T) {
	ts := newTestServer(t, session.Options{NoResultCache: true})
	getJobs := func() (int, []any) {
		resp, err := http.Get(ts.URL + "/jobs")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			Count int   `json:"count"`
			Jobs  []any `json:"jobs"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out.Count, out.Jobs
	}
	if n, _ := getJobs(); n != 0 {
		t.Fatalf("idle server lists %d jobs", n)
	}

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			postJSONNoFatal(t, ts.URL+"/query", map[string]any{
				"query": "MATCH (a:Person)-[:knows]->(b:Person)-[:knows]->(c:Person) RETURN a.name, c.name",
			})
		}
	}()
	defer func() { close(stop); <-done }()

	deadline := time.After(5 * time.Second)
	for {
		select {
		case <-deadline:
			t.Fatal("never caught an in-flight job on /jobs")
		default:
		}
		_, jobs := getJobs()
		if len(jobs) == 0 {
			continue
		}
		j := jobs[0].(map[string]any)
		if q, _ := j["query"].(string); !strings.Contains(q, "MATCH") {
			t.Fatalf("job lost its query: %v", j)
		}
		if tid, _ := j["traceId"].(string); tid == "" {
			t.Fatalf("job lost its trace ID: %v", j)
		}
		state, _ := j["state"].(string)
		stage, _ := j["stage"].(float64)
		kind, _ := j["kind"].(string)
		if state == "running" && stage > 0 && kind != "" {
			return // acceptance criterion: live stage while it runs
		}
	}
}

// TestHealthz: liveness plus graph size.
func TestHealthz(t *testing.T) {
	ts := newTestServer(t, session.Options{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || out["status"] != "ok" {
		t.Fatalf("healthz: status=%d body=%v", resp.StatusCode, out)
	}
	if out["vertices"].(float64) != 3 || out["edges"].(float64) != 3 {
		t.Fatalf("graph size: %v", out)
	}
}

// TestConcurrentRequestsNeverHang: a burst of concurrent requests against a
// single-slot, zero-queue session all terminate with 200 or a structured
// 429 — never a hang, never another status.
func TestConcurrentRequestsNeverHang(t *testing.T) {
	ts := newTestServer(t, session.Options{MaxConcurrent: 1, MaxQueued: -1})
	const n = 16
	var wg sync.WaitGroup
	statuses := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _, out := postJSONNoFatal(t, ts.URL+"/query",
				map[string]any{"query": "MATCH (a:Person)-[:knows]->(b)-[:knows]->(c) RETURN a.name"})
			statuses[i] = resp
			if resp == http.StatusTooManyRequests && out["kind"] != "rejected" {
				t.Errorf("429 kind=%v want rejected", out["kind"])
			}
		}(i)
	}
	wg.Wait()
	for i, st := range statuses {
		if st != http.StatusOK && st != http.StatusTooManyRequests {
			t.Fatalf("request %d: status=%d", i, st)
		}
	}
}

// postJSONNoFatal is postJSON for goroutines other than the test's own: a
// transport error is reported with t.Error and comes back as status 0.
func postJSONNoFatal(t *testing.T, url string, body any) (int, http.Header, map[string]any) {
	t.Helper()
	b, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Error(err)
		return 0, nil, nil
	}
	defer resp.Body.Close()
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, resp.Header, out
}

func copyAll(sb *strings.Builder, resp *http.Response) (int64, error) {
	buf := make([]byte, 4096)
	var n int64
	for {
		k, err := resp.Body.Read(buf)
		sb.Write(buf[:k])
		n += int64(k)
		if err != nil {
			if err.Error() == "EOF" {
				return n, nil
			}
			return n, err
		}
	}
}
