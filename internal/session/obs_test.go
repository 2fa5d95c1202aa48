package session

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"gradoop/internal/epgm"
	"gradoop/internal/obs"
)

// obsQueries is a small mixed workload: repeats (plan/result cache hits),
// a parameterized query, and one invalid query.
func obsWorkload(s *Session) {
	queries := []string{
		`MATCH (a:Person)-[:knows]->(b:Person) RETURN a.name, b.name`,
		`MATCH (a:Person)-[:knows]->(b:Person) RETURN a.name, b.name`,
		`MATCH (p:Person)-[:studyAt]->(u:University) RETURN p.name`,
		`MATCH (p:Person) WHERE p.name = $n RETURN p.name`,
	}
	for _, q := range queries {
		req := Request{Query: q}
		if strings.Contains(q, "$n") {
			req.Params = map[string]epgm.PropertyValue{"n": epgm.PVString("Alice")}
		}
		serve(s, req)
	}
	// Same canonical query, different binding: a result-cache miss that is
	// a plan-cache hit.
	serve(s, Request{
		Query:  `MATCH (p:Person) WHERE p.name = $n RETURN p.name`,
		Params: map[string]epgm.PropertyValue{"n": epgm.PVString("Bob")},
	})
	s.Execute(Request{Query: `MATCH (a:Person RETURN a`}) // invalid
}

// TestSessionRegistryParity: the same workload against a session with and
// without a registry produces byte-identical responses — telemetry observes
// the service, it never alters results.
func TestSessionRegistryParity(t *testing.T) {
	g := testGraph(4) // one graph: row order follows the element ids
	run := func(r *obs.Registry) []string {
		s := New(g, Options{Metrics: r})
		var out []string
		for _, q := range []string{
			`MATCH (a:Person)-[:knows]->(b:Person) RETURN a.name, b.name`,
			`MATCH (a:Person)-[:knows]->(b:Person) RETURN a.name, b.name`,
			`MATCH (p:Person)-[:studyAt]->(u:University) RETURN p.name`,
		} {
			resp, err := s.Execute(Request{Query: q})
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(struct {
				Columns []string
				Rows    json.RawMessage
				Count   int64
			}{resp.Columns, rowsOf(t, resp), resp.Count})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, string(b))
		}
		return out
	}
	with := run(obs.NewRegistry())
	without := run(nil)
	if !reflect.DeepEqual(with, without) {
		t.Fatalf("registry changed results:\nwith:    %v\nwithout: %v", with, without)
	}
}

// TestSessionInstruments: after a mixed workload the registry exposes the
// service's core series with values agreeing with the session's own
// counters.
func TestSessionInstruments(t *testing.T) {
	r := obs.NewRegistry()
	s := New(testGraph(4), Options{Metrics: r})
	obsWorkload(s)

	m := s.Metrics()
	exp := r.Exposition()
	expect := map[string]int64{
		"gradoop_queries_total ":                      m.Queries,
		`gradoop_plan_cache_total{outcome="hit"} `:    m.PlanHits,
		`gradoop_plan_cache_total{outcome="miss"} `:   m.PlanMisses,
		`gradoop_result_cache_total{outcome="hit"} `:  m.ResultHits,
		`gradoop_result_cache_total{outcome="miss"} `: m.ResultMisses,
		`gradoop_query_errors_total{kind="invalid"} `: m.Invalid,
		"gradoop_stages_total ":                       m.Cluster.Stages,
	}
	for prefix, want := range expect {
		if want == 0 {
			t.Errorf("workload left %q at zero; test exercises nothing", prefix)
		}
		line := fmt.Sprintf("%s%d\n", prefix, want)
		if !strings.Contains(exp, line) {
			t.Errorf("exposition missing %q:\n%s", line, exp)
		}
	}
	for _, series := range []string{
		"gradoop_admission_wait_seconds_count",
		`gradoop_query_duration_seconds{quantile="0.99"}`,
		"gradoop_admission_queue_depth 0",
		"gradoop_inflight_queries 0",
		"gradoop_plan_cache_entries",
		"gradoop_result_cache_bytes",
		`gradoop_stage_duration_seconds{kind=`,
	} {
		if !strings.Contains(exp, series) {
			t.Errorf("exposition missing series %q", series)
		}
	}
}

// TestMetricsSnapshotUntorn: satellite 1 — snapshots taken while queries
// complete concurrently are internally consistent: after the load drains,
// the cluster aggregate reports exactly one job per executed query, and no
// intermediate snapshot ever shows more jobs than queries merged so far.
func TestMetricsSnapshotUntorn(t *testing.T) {
	s := New(testGraph(2), Options{MaxConcurrent: 4, MaxQueued: 64, NoResultCache: true})
	const goroutines, per = 4, 8
	stop := make(chan struct{})
	var snapErr error
	var snapMu sync.Mutex
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			m := s.Metrics()
			if int64(len(m.Cluster.CPUElements)) != 0 && m.Cluster.Workers == 0 {
				snapMu.Lock()
				snapErr = fmt.Errorf("torn snapshot: %d worker slices but Workers=0", len(m.Cluster.CPUElements))
				snapMu.Unlock()
			}
			if m.Cluster.Jobs > m.Queries {
				snapMu.Lock()
				snapErr = fmt.Errorf("torn snapshot: jobs=%d > queries=%d", m.Cluster.Jobs, m.Queries)
				snapMu.Unlock()
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := s.Execute(Request{
					Query: `MATCH (a:Person)-[:knows]->(b:Person) RETURN a.name`,
				}); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	snapMu.Lock()
	defer snapMu.Unlock()
	if snapErr != nil {
		t.Fatal(snapErr)
	}
	m := s.Metrics()
	if m.Cluster.Jobs != goroutines*per {
		t.Fatalf("jobs=%d want %d", m.Cluster.Jobs, goroutines*per)
	}
}

// TestJobsLiveView: an in-flight query appears in Jobs() with its canonical
// query, running state and a live stage; after completion the table is
// empty again.
func TestJobsLiveView(t *testing.T) {
	s := New(testGraph(2), Options{Metrics: obs.NewRegistry(), NoResultCache: true})
	if got := s.Jobs(); len(got) != 0 {
		t.Fatalf("idle session lists %d jobs", len(got))
	}

	// Stall a traced query inside a UDF-visible stage by holding a lock the
	// filter parameter binding can't touch — instead, run queries in a loop
	// in the background and poll Jobs() until we catch one mid-flight.
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
			s.Execute(Request{
				Query:   `MATCH (a:Person)-[:knows]->(b:Person)-[:knows]->(c:Person) RETURN a.name, c.name`,
				Trace:   true,
				Context: obs.WithTraceID(context.Background(), "deadbeef"),
			})
		}
	}()
	defer func() { close(stop); <-done }()

	deadline := time.After(5 * time.Second)
	for {
		select {
		case <-deadline:
			t.Fatal("never caught an in-flight job in Jobs()")
		default:
		}
		jobs := s.Jobs()
		if len(jobs) == 0 {
			continue
		}
		j := jobs[0]
		if j.Query == "" || !strings.Contains(j.Query, "MATCH") {
			t.Fatalf("job lost its query text: %+v", j)
		}
		if j.TraceID != "deadbeef" {
			t.Fatalf("job lost its trace ID: %+v", j)
		}
		if j.State != "running" && j.State != "queued" {
			t.Fatalf("unexpected state %q", j.State)
		}
		// Keep polling until we see a running job with a live stage: that is
		// the acceptance criterion — the current stage while it runs.
		if j.State == "running" && j.Stage > 0 && j.Kind != "" {
			return
		}
	}
}

// TestSlowQueryLog: a threshold of 1ns makes every successful query slow;
// the log record carries the canonical query, the plan and the stamped
// trace ID.
func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(obs.NewLogHandler(slog.NewJSONHandler(lockedWriter{&mu, &buf}, nil)))
	r := obs.NewRegistry()
	s := New(testGraph(2), Options{
		Metrics:            r,
		Logger:             logger,
		SlowQueryThreshold: 1, // 1ns: everything is slow
	})
	ctx := obs.WithTraceID(context.Background(), "feedc0de")
	if _, err := serve(s, Request{
		Query:   `MATCH (a:Person)-[:knows]->(b:Person) RETURN a.name`,
		Context: ctx,
	}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	for _, want := range []string{
		`"msg":"slow query"`,
		`"query":"MATCH (a:Person)-[:knows]->(b:Person) RETURN a.name"`,
		`"trace_id":"feedc0de"`,
		`"plan":`,
		`"fingerprint":`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("slow-query log missing %s:\n%s", want, out)
		}
	}
	if !strings.Contains(r.Exposition(), "gradoop_slow_queries_total 1") {
		t.Errorf("slow-query counter not incremented:\n%s", r.Exposition())
	}

	// Result-cache hits are never slow-logged (no execution happened) —
	// second identical query leaves the counter at 1.
	if hit, err := s.Execute(Request{
		Query:   `MATCH (a:Person)-[:knows]->(b:Person) RETURN a.name`,
		Context: ctx,
	}); err != nil || !hit.FromResultCache {
		t.Fatalf("second request: %+v, %v", hit, err)
	}
	if !strings.Contains(r.Exposition(), "gradoop_slow_queries_total 1") {
		t.Errorf("result-cache hit was slow-logged:\n%s", r.Exposition())
	}
}

// lockedWriter serializes writes so -race accepts the shared buffer.
type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}
