package session

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"gradoop/internal/baseline"
	"gradoop/internal/dataflow"
	"gradoop/internal/epgm"
	"gradoop/internal/operators"
)

// TestConcurrentQueries is the -race-exercised service test: many
// simultaneous queries against one session — mixed plan/result cache hits
// and misses, one cancelled mid-flight, one fault-injected — asserting
// per-query correctness against the brute-force baseline and no metrics
// cross-talk between jobs.
func TestConcurrentQueries(t *testing.T) {
	g := testGraph(4)
	s := New(g, Options{MaxConcurrent: 4, MaxQueued: 64})

	// Expected counts from the brute-force baseline, via one sequential
	// warm-up execution per query (also seeding caches for the hit mix).
	queries := []string{
		`MATCH (a:Person)-[:knows]->(b:Person) RETURN a.name, b.name`,
		`MATCH (a:Person)-[:studyAt]->(u:University) RETURN a.name`,
		`MATCH (a:Person)-[:knows]->(b)-[:knows]->(c) RETURN a.name, c.name`,
		`MATCH (a:Person) WHERE a.name = $name RETURN a.name`,
	}
	params := map[string]epgm.PropertyValue{"name": epgm.PVString("Alice")}
	ref := baseline.NewReference(g)
	morph := operators.Morphism{Vertex: s.opts.Vertex, Edge: s.opts.Edge}
	want := map[string]int64{}
	soloCPU := map[string]int64{}
	for _, q := range queries {
		p := params
		r, err := serve(s, Request{Query: q, Params: p})
		if err != nil {
			t.Fatalf("warm-up %q: %v", q, err)
		}
		want[q] = int64(ref.Count(r.Result.QueryGraph, morph))
		if r.Count != want[q] {
			t.Fatalf("warm-up %q: count=%d baseline=%d", q, r.Count, want[q])
		}
		// The deterministic per-job CPU element count of this query, used
		// below to detect metrics cross-talk between concurrent jobs.
		soloCPU[q] = r.Metrics.TotalCPU
	}

	const rounds = 8
	var wg sync.WaitGroup
	errs := make(chan error, rounds*(len(queries)+2))
	for round := 0; round < rounds; round++ {
		for _, q := range queries {
			wg.Add(1)
			go func(q string, traced bool) {
				defer wg.Done()
				r, err := s.Execute(Request{Query: q, Params: params, Trace: traced})
				if err != nil {
					errs <- err
					return
				}
				if r.Count != want[q] {
					errs <- errorsNewf("query %q: count=%d want %d", q, r.Count, want[q])
					return
				}
				// Traced requests bypass the result cache, so they always
				// ran a job of their own; its metrics must match the solo
				// run exactly — any cross-talk from concurrently running
				// jobs would inflate the counters.
				if traced && r.Metrics.TotalCPU != soloCPU[q] {
					errs <- errorsNewf("query %q: concurrent TotalCPU=%d solo=%d (metrics cross-talk)",
						q, r.Metrics.TotalCPU, soloCPU[q])
				}
			}(q, round%2 == 0)
		}
		// One request cancelled mid-flight: it must fail with a structured
		// timeout/cancellation, never hang, and never corrupt others.
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			_, err := s.Execute(Request{
				Query:   queries[2],
				Context: ctx,
				Trace:   true, // bypass the result cache so a job actually starts
			})
			var se *Error
			if err == nil || !errors.As(err, &se) || se.Kind != KindTimeout {
				errs <- errorsNewf("cancelled request: err=%v, want KindTimeout", err)
			}
		}()
		// One fault-injected request: worker failures recover transparently
		// and the result stays correct.
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Some stages run no partition attempt and cannot be killed - a
			// union that concatenates a multi-label scan, for one - so the
			// kills cover a stage range to be sure some land on partitioned
			// stages whatever the plan's stage order.
			var kills []dataflow.Kill
			for stage := int64(1); stage <= 10; stage++ {
				kills = append(kills, dataflow.Kill{Stage: stage, Partition: 0})
			}
			r, err := s.Execute(Request{
				Query:  queries[0],
				Faults: &dataflow.FaultPlan{Kills: kills},
			})
			if err != nil {
				errs <- errorsNewf("fault-injected request: %v", err)
				return
			}
			if r.Count != want[queries[0]] {
				errs <- errorsNewf("fault-injected request: count=%d want %d", r.Count, want[queries[0]])
				return
			}
			if r.Metrics.Retries == 0 {
				errs <- errorsNewf("fault-injected request recorded no retries")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	m := s.Metrics()
	if m.Rejected != 0 {
		t.Fatalf("queue sized for the load still rejected %d requests", m.Rejected)
	}
	if m.Cluster.Jobs == 0 || m.Cluster.SlotWait < 0 {
		t.Fatalf("job-slot accounting missing: %+v", m.Cluster)
	}
	if m.PlanHits == 0 || m.ResultHits == 0 {
		t.Fatalf("expected mixed cache hits under load: %+v", m)
	}
}

// TestConcurrentColdStart: many goroutines racing on a cold cache for the
// same query compile it exactly once (single-flight) and all get correct
// results.
func TestConcurrentColdStart(t *testing.T) {
	s := New(testGraph(4), Options{MaxConcurrent: 8, MaxQueued: 64, NoResultCache: true})
	const n = 16
	var wg sync.WaitGroup
	counts := make([]int64, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := s.Execute(Request{Query: `MATCH (a:Person)-[:knows]->(b) RETURN b.name`})
			if err != nil {
				errs[i] = err
				return
			}
			counts[i] = r.Count
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if counts[i] != 5 {
			t.Fatalf("goroutine %d: count=%d want 5", i, counts[i])
		}
	}
	if m := s.Metrics(); m.PlanMisses != 1 || m.PlanHits != n-1 {
		t.Fatalf("single-flight violated: %d misses, %d hits", m.PlanMisses, m.PlanHits)
	}
}

func errorsNewf(format string, args ...any) error { return fmt.Errorf(format, args...) }
