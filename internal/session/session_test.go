package session

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"gradoop/internal/core"
	"gradoop/internal/dataflow"
	"gradoop/internal/epgm"
)

// testGraph builds a small social graph: persons with names, knows edges,
// a university with studyAt edges.
func testGraph(workers int) *epgm.LogicalGraph {
	env := dataflow.NewEnv(dataflow.DefaultConfig(workers))
	person := func(name string) epgm.Vertex {
		return epgm.Vertex{ID: epgm.NewID(), Label: "Person",
			Properties: epgm.Properties{}.Set("name", epgm.PVString(name))}
	}
	alice, bob, eve, carol := person("Alice"), person("Bob"), person("Eve"), person("Carol")
	uni := epgm.Vertex{ID: epgm.NewID(), Label: "University",
		Properties: epgm.Properties{}.Set("name", epgm.PVString("Uni Leipzig"))}
	e := func(label string, s, t epgm.Vertex) epgm.Edge {
		return epgm.Edge{ID: epgm.NewID(), Label: label, Source: s.ID, Target: t.ID}
	}
	return epgm.GraphFromSlices(env, "Community",
		[]epgm.Vertex{alice, bob, eve, carol, uni},
		[]epgm.Edge{
			e("knows", alice, bob), e("knows", bob, alice), e("knows", bob, eve),
			e("knows", eve, carol), e("knows", carol, alice),
			e("studyAt", alice, uni), e("studyAt", bob, uni), e("studyAt", eve, uni),
		})
}

// rowsOf drains a response as the server does and returns the rows array its
// reader got.
func rowsOf(t testing.TB, r *Response) []byte {
	t.Helper()
	var buf bytes.Buffer
	if n, err := r.WriteRows(&buf); err != nil || n != int64(buf.Len()) {
		t.Fatalf("WriteRows: %d of %d bytes, err %v", n, buf.Len(), err)
	}
	return buf.Bytes()
}

// serve is a request as a client sees it served: executed and, if that went
// well, its rows written out in full - which is what leaves a cacheable
// result in the result cache.
func serve(s *Session, req Request) (*Response, error) {
	r, err := s.Execute(req)
	if err == nil {
		_, err = r.WriteRows(io.Discard)
	}
	return r, err
}

// TestExecuteBasics: a session serves a query, reports rows and a count,
// and the second identical request is a result-cache hit with identical
// rows.
func TestExecuteBasics(t *testing.T) {
	s := New(testGraph(4), Options{})
	req := Request{Query: `MATCH (a:Person)-[:knows]->(b:Person) RETURN a.name, b.name`}
	r1, err := s.Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	if rows := r1.Result.Rows(); r1.Count != 5 || len(rows) != 5 {
		t.Fatalf("count=%d rows=%d want 5/5", r1.Count, len(rows))
	}
	if r1.FromResultCache || r1.PlanCacheHit {
		t.Fatalf("first request must miss both caches: %+v", r1)
	}
	if r1.Fingerprint == "" {
		t.Fatal("missing plan fingerprint")
	}
	if r1.Metrics.TotalCPU == 0 {
		t.Fatal("first execution reported no work")
	}
	rows1 := rowsOf(t, r1) // written in full, which is what makes it a cache entry

	r2, err := s.Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.FromResultCache {
		t.Fatal("second identical request must hit the result cache")
	}
	if rows2 := rowsOf(t, r2); !bytes.Equal(rows2, rows1) || len(rows2) == 0 {
		t.Fatalf("cached rows=%s want %s", rows2, rows1)
	}
	m := s.Metrics()
	if m.ResultHits != 1 || m.PlanMisses != 1 {
		t.Fatalf("metrics: %+v", m)
	}
}

// TestPlanCacheParameterized: two bindings of the same $param query share
// one plan-cache entry (the second is a plan hit, not a result hit) and
// return binding-specific results.
func TestPlanCacheParameterized(t *testing.T) {
	s := New(testGraph(4), Options{})
	q := `MATCH (a:Person) WHERE a.name = $name RETURN a.name`
	r1, err := s.Execute(Request{Query: q, Params: map[string]epgm.PropertyValue{"name": epgm.PVString("Alice")}})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Execute(Request{Query: q, Params: map[string]epgm.PropertyValue{"name": epgm.PVString("Bob")}})
	if err != nil {
		t.Fatal(err)
	}
	if r1.PlanCacheHit {
		t.Fatal("first binding cannot be a plan hit")
	}
	if !r2.PlanCacheHit || r2.FromResultCache {
		t.Fatalf("second binding must hit the plan cache only: %+v", r2)
	}
	if r1.Count != 1 || r2.Count != 1 {
		t.Fatalf("counts: %d, %d", r1.Count, r2.Count)
	}
	if bytes.Equal(rowsOf(t, r1), rowsOf(t, r2)) {
		t.Fatal("bindings returned the same row")
	}
	if r1.Fingerprint != r2.Fingerprint {
		t.Fatal("one template must have one fingerprint")
	}
	// Same binding again: now the result cache serves it.
	r3, err := s.Execute(Request{Query: q, Params: map[string]epgm.PropertyValue{"name": epgm.PVString("Alice")}})
	if err != nil {
		t.Fatal(err)
	}
	if !r3.FromResultCache {
		t.Fatal("repeated binding must hit the result cache")
	}
}

// TestCanonicalization: whitespace variants of one query share cache
// entries.
func TestCanonicalization(t *testing.T) {
	s := New(testGraph(2), Options{NoResultCache: true})
	if _, err := s.Execute(Request{Query: "MATCH (a:Person)  RETURN a.name"}); err != nil {
		t.Fatal(err)
	}
	r, err := s.Execute(Request{Query: "MATCH (a:Person)\n\tRETURN   a.name"})
	if err != nil {
		t.Fatal(err)
	}
	if !r.PlanCacheHit {
		t.Fatal("whitespace variant missed the plan cache")
	}
}

// TestCacheEscapeHatches: NoPlanCache and NoResultCache, each on its own and
// both together, switch off exactly the cache they name: a disabled plan
// cache recompiles every request that reaches it, a disabled result cache
// re-executes every request, and the other cache keeps hitting.
func TestCacheEscapeHatches(t *testing.T) {
	for _, c := range []struct {
		name                             string
		opts                             Options
		planHits, planMisses, resultHits int64
	}{
		{"both", Options{NoPlanCache: true, NoResultCache: true}, 0, 3, 0},
		{"NoPlanCache", Options{NoPlanCache: true}, 0, 1, 2},
		{"NoResultCache", Options{NoResultCache: true}, 2, 1, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := New(testGraph(2), c.opts)
			req := Request{Query: `MATCH (a:Person) RETURN a.name`}
			for i := 0; i < 3; i++ {
				if _, err := serve(s, req); err != nil {
					t.Fatal(err)
				}
			}
			m := s.Metrics()
			if m.PlanHits != c.planHits || m.PlanMisses != c.planMisses || m.ResultHits != c.resultHits {
				t.Fatalf("plan hits/misses %d/%d, result hits %d, want %d/%d and %d",
					m.PlanHits, m.PlanMisses, m.ResultHits, c.planHits, c.planMisses, c.resultHits)
			}
		})
	}
}

// TestTraceSpansVerifyCacheHitSkipsPrepare: a traced cache miss carries a
// "Prepare" op span; a traced hit does not — the observable proof that the
// hit path skips parse+plan.
func TestTraceSpansVerifyCacheHitSkipsPrepare(t *testing.T) {
	s := New(testGraph(2), Options{})
	req := Request{Query: `MATCH (a:Person)-[:knows]->(b) RETURN b.name`, Trace: true}
	r1, err := s.Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r1.Trace.Op(prepareToken{}); !ok {
		t.Fatal("traced miss has no Prepare span")
	}
	r2, err := s.Execute(req) // trace requests bypass the result cache
	if err != nil {
		t.Fatal(err)
	}
	if !r2.PlanCacheHit {
		t.Fatal("second traced request should hit the plan cache")
	}
	if _, ok := r2.Trace.Op(prepareToken{}); ok {
		t.Fatal("traced hit still ran Prepare")
	}
}

// TestSwapGraphInvalidates: swapping the graph purges both caches and
// queries see the new data.
func TestSwapGraphInvalidates(t *testing.T) {
	s := New(testGraph(2), Options{})
	req := Request{Query: `MATCH (a:Person) RETURN a.name`}
	r1, err := s.Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Count != 4 {
		t.Fatalf("count=%d want 4", r1.Count)
	}

	env := dataflow.NewEnv(dataflow.DefaultConfig(2))
	small := epgm.GraphFromSlices(env, "Solo",
		[]epgm.Vertex{{ID: epgm.NewID(), Label: "Person",
			Properties: epgm.Properties{}.Set("name", epgm.PVString("Zoe"))}}, nil)
	s.SwapGraph(small)

	r2, err := s.Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	if r2.FromResultCache || r2.PlanCacheHit {
		t.Fatalf("caches must be purged on swap: %+v", r2)
	}
	if rows := rowsOf(t, r2); r2.Count != 1 || string(rows) != `[["Zoe"]]` {
		t.Fatalf("swap not visible: count=%d rows=%s", r2.Count, rows)
	}
}

// TestAdmissionQueueFull: with one slot and no queue, a second concurrent
// request is rejected with a structured ErrQueueFull — deterministically,
// by occupying the slot directly.
func TestAdmissionQueueFull(t *testing.T) {
	s := New(testGraph(2), Options{MaxConcurrent: 1, MaxQueued: 1})
	s.gate.slots <- struct{}{} // occupy the only slot
	s.gate.waiting.Add(1)      // fill the only queue spot
	_, err := s.Execute(Request{Query: `MATCH (a:Person) RETURN a.name`})
	var se *Error
	if !errors.As(err, &se) || se.Kind != KindRejected || !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err=%v, want KindRejected wrapping ErrQueueFull", err)
	}
	if m := s.Metrics(); m.Rejected != 1 {
		t.Fatalf("rejected=%d want 1", m.Rejected)
	}
	s.gate.waiting.Add(-1)
	<-s.gate.slots
}

// TestDeadlineWhileQueued: a request whose deadline expires in the
// admission queue returns a structured timeout, not a hang.
func TestDeadlineWhileQueued(t *testing.T) {
	s := New(testGraph(2), Options{MaxConcurrent: 1, MaxQueued: 4})
	s.gate.slots <- struct{}{} // occupy the only slot; the request must queue
	defer func() { <-s.gate.slots }()
	start := time.Now()
	_, err := s.Execute(Request{
		Query:   `MATCH (a:Person) RETURN a.name`,
		Timeout: 30 * time.Millisecond,
	})
	var se *Error
	if !errors.As(err, &se) || se.Kind != KindTimeout {
		t.Fatalf("err=%v, want KindTimeout", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cause=%v, want DeadlineExceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("queued request took far longer than its deadline")
	}
}

// TestInvalidQueries: parse errors and missing parameters classify as
// KindInvalid.
func TestInvalidQueries(t *testing.T) {
	s := New(testGraph(2), Options{})
	for _, q := range []string{"", "MATCH (", "MATCH (a:Person) RETURN zzz"} {
		_, err := s.Execute(Request{Query: q})
		var se *Error
		if !errors.As(err, &se) || se.Kind != KindInvalid {
			t.Fatalf("query %q: err=%v, want KindInvalid", q, err)
		}
	}
	_, err := s.Execute(Request{Query: `MATCH (a:Person) WHERE a.name = $missing RETURN a.name`})
	var se *Error
	if !errors.As(err, &se) || se.Kind != KindInvalid {
		t.Fatalf("missing param: err=%v, want KindInvalid", err)
	}
	if !strings.Contains(err.Error(), "$missing") {
		t.Fatalf("missing param error does not name the parameter: %v", err)
	}
}

// TestExplain: renders the template plan (parameters unresolved) without
// executing, and reports the fingerprint the execution path also reports.
func TestExplain(t *testing.T) {
	s := New(testGraph(2), Options{})
	q := `MATCH (a:Person) WHERE a.name = $name RETURN a.name`
	plan, fp, err := s.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "FilterAndProjectVertices") || !strings.Contains(plan, "preds=1") {
		t.Fatalf("unexpected template plan:\n%s", plan)
	}
	r, err := s.Execute(Request{Query: q, Params: map[string]epgm.PropertyValue{"name": epgm.PVString("Eve")}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Fingerprint != fp {
		t.Fatalf("explain fingerprint %s != execute fingerprint %s", fp, r.Fingerprint)
	}
	if !r.PlanCacheHit {
		t.Fatal("Explain should have warmed the plan cache")
	}
}

// TestLiteralWhitespacePreserved: canonicalization must not rewrite string
// literals — a predicate on 'John  Smith' (two spaces) matches only that
// vertex, and the single-space variant is a different query with a
// different (empty) result, not a cache collision.
func TestLiteralWhitespacePreserved(t *testing.T) {
	env := dataflow.NewEnv(dataflow.DefaultConfig(2))
	g := epgm.GraphFromSlices(env, "Names",
		[]epgm.Vertex{
			{ID: epgm.NewID(), Label: "Person",
				Properties: epgm.Properties{}.Set("name", epgm.PVString("John  Smith"))},
			{ID: epgm.NewID(), Label: "Person",
				Properties: epgm.Properties{}.Set("name", epgm.PVString("John Smith"))},
		}, nil)
	s := New(g, Options{})
	two, err := s.Execute(Request{Query: "MATCH (a:Person)  WHERE a.name = 'John  Smith'  RETURN a.name"})
	if err != nil {
		t.Fatal(err)
	}
	if rows := rowsOf(t, two); two.Count != 1 || string(rows) != `[["John  Smith"]]` {
		t.Fatalf("double-space literal: count=%d rows=%s", two.Count, rows)
	}
	one, err := s.Execute(Request{Query: "MATCH (a:Person)  WHERE a.name = 'John Smith'  RETURN a.name"})
	if err != nil {
		t.Fatal(err)
	}
	if one.FromResultCache || one.PlanCacheHit {
		t.Fatalf("queries differing inside a literal shared a cache entry: %+v", one)
	}
	if rows := rowsOf(t, one); one.Count != 1 || string(rows) != `[["John Smith"]]` {
		t.Fatalf("single-space literal: count=%d rows=%s", one.Count, rows)
	}
}

// TestStaleCompileAfterSwap: a compile racing with SwapGraph (snapshot taken
// before the swap, insert after the purge) must not leave its
// stale-statistics plan where post-swap requests find it.
func TestStaleCompileAfterSwap(t *testing.T) {
	s := New(testGraph(2), Options{})
	q := CanonicalQuery(`MATCH (a:Person) RETURN a.name`)
	st := s.snapshot() // the racing request's pre-swap snapshot

	env := dataflow.NewEnv(dataflow.DefaultConfig(2))
	small := epgm.GraphFromSlices(env, "Solo",
		[]epgm.Vertex{{ID: epgm.NewID(), Label: "Person",
			Properties: epgm.Properties{}.Set("name", epgm.PVString("Zoe"))}}, nil)
	s.SwapGraph(small)

	// The stale request compiles after the purge, against the old snapshot.
	if _, hit, err := s.compile(st, q, nil); err != nil || hit {
		t.Fatalf("stale compile: hit=%v err=%v", hit, err)
	}
	if n := s.plans.len(); n != 0 {
		t.Fatalf("stale plan lingers in the cache: %d entries", n)
	}
	// A post-swap request must rebuild against the new generation, not reuse
	// the stale-stat plan.
	r, err := s.Execute(Request{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	if r.PlanCacheHit {
		t.Fatal("post-swap request hit the stale generation's plan")
	}
	if r.Count != 1 {
		t.Fatalf("count=%d want 1", r.Count)
	}
}

// TestCloseLeavesNothingPinned: a session collects its own statistics and
// holds them with the graph they describe, so nothing it does - open, serve,
// swap, close - writes core's process-wide statistics memo, which would keep
// a graph reachable after the session let go of it; and a closed session
// holds no rows and no graph.
func TestCloseLeavesNothingPinned(t *testing.T) {
	memoized := core.GraphStatsMemoized()
	unchanged := func(cycle int, after string) {
		t.Helper()
		if got := core.GraphStatsMemoized(); got != memoized {
			t.Fatalf("cycle %d: %d graphs memoized after %s, want %d as before the session", cycle, got, after, memoized)
		}
	}
	for cycle := 0; cycle < 5; cycle++ {
		s := New(testGraph(2), Options{})
		unchanged(cycle, "New")
		if _, err := s.Execute(Request{Query: `MATCH (p:Person)-[:knows]->(q:Person) RETURN p.name`}); err != nil {
			t.Fatal(err)
		}
		unchanged(cycle, "Execute")
		if cycle%2 == 1 {
			s.SwapGraph(testGraph(2))
			unchanged(cycle, "SwapGraph")
		}
		if got, want := s.Metrics().StatsCollections, int64(1+cycle%2); got != want {
			t.Fatalf("cycle %d: session reports %d statistics collections, want %d: one per graph it served", cycle, got, want)
		}
		s.Close()
		unchanged(cycle, "Close")
		if v, e := s.GraphSize(); v != 0 || e != 0 {
			t.Fatalf("cycle %d: closed session still pins %d vertices, %d edges", cycle, v, e)
		}
		if bytes, entries := s.results.usage(); bytes != 0 || entries != 0 {
			t.Fatalf("cycle %d: closed session still caches %d results (%d bytes)", cycle, entries, bytes)
		}
	}
}

// TestSingleFlightSpanAttribution: under a concurrent cold start, exactly
// one request runs the build — and that same request is the one reporting a
// plan-cache miss and carrying the Prepare trace span. Hit/miss labels and
// spans must agree per response, not just in aggregate.
func TestSingleFlightSpanAttribution(t *testing.T) {
	for round := 0; round < 8; round++ {
		s := New(testGraph(2), Options{})
		const n = 8
		responses := make([]*Response, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				r, err := s.Execute(Request{Query: `MATCH (a:Person)-[:knows]->(b) RETURN b.name`, Trace: true})
				if err != nil {
					t.Error(err)
					return
				}
				responses[i] = r
			}(i)
		}
		wg.Wait()
		builders := 0
		for _, r := range responses {
			if r == nil {
				t.Fatal("missing response")
			}
			_, hasSpan := r.Trace.Op(prepareToken{})
			if hasSpan != !r.PlanCacheHit {
				t.Fatalf("span/label disagree: hit=%v span=%v", r.PlanCacheHit, hasSpan)
			}
			if hasSpan {
				builders++
			}
		}
		if builders != 1 {
			t.Fatalf("round %d: %d builders, want exactly 1", round, builders)
		}
		if m := s.Metrics(); m.PlanMisses != 1 || m.PlanHits != n-1 {
			t.Fatalf("round %d: misses=%d hits=%d, want 1/%d", round, m.PlanMisses, m.PlanHits, n-1)
		}
	}
}

// TestResultCacheEviction: a tiny byte budget evicts older results instead
// of growing without bound.
func TestResultCacheEviction(t *testing.T) {
	s := New(testGraph(2), Options{ResultCacheBytes: 200})
	queries := []string{
		`MATCH (a:Person) RETURN a.name`,
		`MATCH (a:Person)-[:knows]->(b) RETURN b.name`,
		`MATCH (a:University) RETURN a.name`,
	}
	for _, q := range queries {
		if _, err := s.Execute(Request{Query: q}); err != nil {
			t.Fatal(err)
		}
	}
	bytes, entries := s.results.usage()
	if bytes > 200 {
		t.Fatalf("result cache exceeded budget: %d bytes", bytes)
	}
	if entries >= len(queries) {
		t.Fatalf("no eviction happened: %d entries", entries)
	}
}
