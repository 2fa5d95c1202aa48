package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"gradoop/internal/dataflow"
	"gradoop/internal/embedding"
	"gradoop/internal/epgm"
	"gradoop/internal/operators"
	"gradoop/internal/stats"
)

// denseGraph builds a complete directed graph over n Person vertices —
// small, but with ~n^k k-hop paths it makes an unbounded variable-length
// expansion effectively infinite under homomorphism.
func denseGraph(env *dataflow.Env, n int) *epgm.LogicalGraph {
	vs := make([]epgm.Vertex, 0, n)
	for i := 0; i < n; i++ {
		vs = append(vs, epgm.Vertex{ID: epgm.NewID(), Label: "Person"})
	}
	var es []epgm.Edge
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			es = append(es, epgm.Edge{ID: epgm.NewID(), Label: "knows", Source: vs[i].ID, Target: vs[j].ID})
		}
	}
	return epgm.NewLogicalGraph(env, epgm.GraphHead{ID: epgm.NewID()},
		dataflow.FromSlice(env, vs), dataflow.FromSlice(env, es))
}

// ringGraph builds a deterministic sparse graph on env - a ring of n Person
// vertices with chord edges, enough structure for multi-stage plans.
func ringGraph(env *dataflow.Env, n int) *epgm.LogicalGraph {
	vs := make([]epgm.Vertex, 0, n)
	for i := 0; i < n; i++ {
		vs = append(vs, epgm.Vertex{
			ID: epgm.NewID(), Label: "Person",
			Properties: epgm.Properties{}.Set("i", epgm.PVInt(int64(i))),
		})
	}
	var es []epgm.Edge
	for i := 0; i < n; i++ {
		es = append(es, epgm.Edge{ID: epgm.NewID(), Label: "knows", Source: vs[i].ID, Target: vs[(i+1)%n].ID})
		es = append(es, epgm.Edge{ID: epgm.NewID(), Label: "knows", Source: vs[i].ID, Target: vs[(i*7+3)%n].ID})
	}
	return epgm.NewLogicalGraph(env, epgm.GraphHead{ID: epgm.NewID()},
		dataflow.FromSlice(env, vs), dataflow.FromSlice(env, es))
}

// TestQueryTimeoutAbortsExpansion: a runaway variable-length expansion on a
// dense graph is cancelled mid-stage by Config.Timeout and returns
// context.DeadlineExceeded promptly, with partial metrics intact. Without
// the timeout the query would enumerate ~24^10 homomorphic paths.
func TestQueryTimeoutAbortsExpansion(t *testing.T) {
	env := dataflow.NewEnv(dataflow.DefaultConfig(4))
	g := denseGraph(env, 24)
	st := stats.Collect(g)
	env.ResetMetrics()

	start := time.Now()
	_, err := Execute(g, `MATCH (a)-[e:knows*1..10]->(b) RETURN *`, Config{
		Stats:   st,
		Timeout: 50 * time.Millisecond,
	})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if elapsed > time.Second {
		t.Errorf("cancellation took %s; the expansion must abort mid-stage", elapsed)
	}
	if env.Metrics().Stages == 0 {
		t.Error("partial metrics should survive the abort")
	}
}

// TestQueryContextCancellation: an external context cancels a running query.
func TestQueryContextCancellation(t *testing.T) {
	env := dataflow.NewEnv(dataflow.DefaultConfig(4))
	g := denseGraph(env, 24)
	st := stats.Collect(g)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	_, err := Execute(g, `MATCH (a)-[e:knows*1..10]->(b) RETURN *`, Config{
		Stats:   st,
		Context: ctx,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestInjectedFailureRecoveryMatchesOracle: a query executed under injected
// worker failures recovers transparently, and the recovery is observed in the
// metrics. (That the rows are the failure-free run's, in order, is
// internal/conformance's killed and random-kills modes.)
func TestInjectedFailureRecoveryMatchesOracle(t *testing.T) {
	env := dataflow.NewEnv(dataflow.DefaultConfig(4))
	g := ringGraph(env, 40)
	cfg := Config{Vertex: operators.Homomorphism, Edge: operators.Isomorphism, Stats: stats.Collect(g)}
	env.ResetMetrics()
	env.InjectFaults(&dataflow.FaultPlan{Kills: []dataflow.Kill{
		{Stage: 1, Partition: 0},
		{Stage: 2, Partition: 1},
		{Stage: 3, Partition: 2, Times: 2},
		{Stage: 5, Partition: 3},
		{Stage: 8, Partition: 0},
	}})
	if _, err := Execute(g, `MATCH (x:Person)-[e:knows*1..3]->(y:Person) WHERE x.i < 10 RETURN *`, cfg); err != nil {
		t.Fatalf("recovery must be transparent, got %v", err)
	}
	if m := env.Metrics(); m.Retries == 0 || m.RetriedStages == 0 {
		t.Errorf("expected observed retries, got retries=%d retriedStages=%d", m.Retries, m.RetriedStages)
	}
}

// TestWorkerFailurePastRetryBudget: a worker that keeps dying surfaces as a
// typed *dataflow.JobError from core.Execute instead of crashing or hanging.
func TestWorkerFailurePastRetryBudget(t *testing.T) {
	env := dataflow.NewEnv(dataflow.DefaultConfig(2))
	g := ringGraph(env, 20)
	st := stats.Collect(g)
	env.ResetMetrics()
	env.InjectFaults(&dataflow.FaultPlan{
		MaxRetries: 1,
		Kills:      []dataflow.Kill{{Stage: 1, Partition: 0, Times: 100}},
	})
	_, err := Execute(g, `MATCH (x:Person)-[:knows]->(y:Person) RETURN *`, Config{Stats: st})
	var je *dataflow.JobError
	if !errors.As(err, &je) {
		t.Fatalf("want *dataflow.JobError, got %v", err)
	}
	if je.Stage != 1 || je.Partition != 0 {
		t.Errorf("JobError should name the failed stage/partition, got %+v", je)
	}
	// The env recovers for the next query after the failed one.
	res, err := Execute(g, `MATCH (x:Person) RETURN *`, Config{Stats: st})
	if err != nil {
		t.Fatalf("env should accept new jobs after a failure: %v", err)
	}
	if res.Count() != 20 {
		t.Errorf("post-failure query broken: %d", res.Count())
	}
}

// panicEnv builds a graph whose property data makes a downstream UDF panic
// deterministically inside the dataflow job, proving that a panic raised in
// the middle of query execution surfaces as a JobError from core.Execute
// rather than crashing the process. The panic is raised by a FlatMap over
// the result embeddings (the same containment path any operator UDF uses).
func TestUDFPanicSurfacesFromExecute(t *testing.T) {
	env := dataflow.NewEnv(dataflow.DefaultConfig(2))
	g := ringGraph(env, 10)
	st := stats.Collect(g)
	env.ResetMetrics()

	res, err := Execute(g, `MATCH (x:Person)-[:knows]->(y:Person) RETURN *`, Config{Stats: st})
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a buggy post-processing UDF running on the same environment
	// as part of the job pipeline.
	env.Begin(nil)
	dataflow.Map(res.Embeddings, func(e embedding.Embedding) int {
		panic(fmt.Sprintf("corrupt embedding of %d bytes", e.SizeBytes()))
	})
	var je *dataflow.JobError
	if fErr := env.Finish(); !errors.As(fErr, &je) {
		t.Fatalf("want *dataflow.JobError from a panicking UDF, got %v", fErr)
	}
}
