package cluster_test

import (
	"fmt"
	"net"
	"strings"
	"testing"

	"gradoop/internal/cluster"
	"gradoop/internal/obs"
	"gradoop/internal/session"
	"gradoop/internal/trace"
)

// startWorkersWith launches n in-process workers with explicit options
// (metrics registries, telemetry off) on loopback listeners.
func startWorkersWith(t *testing.T, data *session.GraphData, n int, opts func(i int) cluster.WorkerOptions) ([]*cluster.Worker, []string) {
	t.Helper()
	workers := make([]*cluster.Worker, n)
	addrs := make([]string, n)
	for i := range workers {
		w := cluster.NewWorkerWith(fmt.Sprintf("w%d", i), data, opts(i))
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go w.Serve(ln)
		t.Cleanup(w.Close)
		workers[i] = w
		addrs[i] = ln.Addr().String()
	}
	return workers, addrs
}

// processLanes counts the distinct process lanes (process_name metadata
// events) of a merged Chrome trace.
func processLanes(ct *trace.ChromeTrace) map[string]bool {
	lanes := map[string]bool{}
	for _, ev := range ct.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			lanes[fmt.Sprint(ev.Args["name"])] = true
		}
	}
	return lanes
}

// TestClusterTelemetryReport is the distributed EXPLAIN ANALYZE acceptance
// check: a 2-worker query's report carries per-worker per-stage actuals
// whose max reproduces the merged stage Actual, per-worker shuffle bytes
// summing to the stage WireBytes, a skew column, per-worker reports and —
// for a traced request — a merged Chrome trace with one process lane per
// worker plus the coordinator's.
func TestClusterTelemetryReport(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns TCP worker meshes")
	}
	data, d := testGraph(t)
	_, addrs := startWorkersWith(t, data, 2, func(i int) cluster.WorkerOptions {
		return cluster.WorkerOptions{Metrics: obs.NewRegistry()}
	})
	coord, err := cluster.NewCoordinator(addrs, cluster.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	s := session.New(d.Graph, session.Options{Workers: 4, Remote: coord})

	resp, err := s.Execute(session.Request{
		Query: `MATCH (p1:Person)-[:knows]->(p2:Person), (p2)-[:knows]->(p3:Person) RETURN *`,
		Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := resp.Cluster
	if rep == nil {
		t.Fatal("no cluster report")
	}
	if rep.TraceID == "" {
		t.Fatal("report has no trace ID")
	}
	if rep.PartialTelemetry {
		t.Fatalf("partial telemetry with all workers shipping: %+v", rep.WorkerReports)
	}
	if len(rep.WorkerReports) != 2 {
		t.Fatalf("%d worker reports, want 2", len(rep.WorkerReports))
	}
	for _, wr := range rep.WorkerReports {
		if !wr.Telemetry || wr.Spans == 0 || wr.WallNs <= 0 {
			t.Fatalf("worker report %+v, want telemetry with spans and wall time", wr)
		}
	}

	// Per-stage attribution: the merge must equal the coordinator's totals.
	for _, st := range rep.Stages {
		if len(st.WorkerNs) != 2 || len(st.WorkerBytes) != 2 {
			t.Fatalf("stage %d: attribution arrays %d/%d, want 2/2",
				st.Stage, len(st.WorkerNs), len(st.WorkerBytes))
		}
		var maxNs, sumNs, sumBytes int64
		for i := range st.WorkerNs {
			if st.WorkerNs[i] > maxNs {
				maxNs = st.WorkerNs[i]
			}
			sumNs += st.WorkerNs[i]
			sumBytes += st.WorkerBytes[i]
		}
		if maxNs != st.Actual {
			t.Fatalf("stage %d: max worker time %d != merged Actual %d", st.Stage, maxNs, st.Actual)
		}
		if sumBytes != st.WireBytes {
			t.Fatalf("stage %d: worker bytes sum %d != merged WireBytes %d", st.Stage, sumBytes, st.WireBytes)
		}
		if want := sumNs / 2; st.MeanNs != want {
			t.Fatalf("stage %d: mean %d, want %d", st.Stage, st.MeanNs, want)
		}
		if st.MeanNs > 0 && st.Skew < 1 {
			t.Fatalf("stage %d: skew %v < 1 (max over mean cannot be)", st.Stage, st.Skew)
		}
	}

	// The merged trace: coordinator lane plus one lane per worker, bound to
	// the report's trace ID.
	if rep.Trace == nil {
		t.Fatal("traced request produced no merged trace")
	}
	if rep.Trace.Metadata["traceId"] != rep.TraceID {
		t.Fatalf("trace metadata %q != report trace ID %q", rep.Trace.Metadata["traceId"], rep.TraceID)
	}
	lanes := processLanes(rep.Trace)
	if len(lanes) != 3 || !lanes["coordinator"] || !lanes["worker w0"] || !lanes["worker w1"] {
		t.Fatalf("merged trace lanes %v, want coordinator + worker w0 + worker w1", lanes)
	}
}

// TestClusterTelemetryParity is the cost pin's behavioral half: a query
// through -no-telemetry workers takes as many attempts as through workers
// that ship telemetry, the report is flagged partial, and the skew table -
// derived from the done reports, not the bundles - is still attributed. That
// the rows are bit-identical is internal/conformance's no-telemetry cluster
// modes.
func TestClusterTelemetryParity(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns TCP worker meshes")
	}
	data, d := testGraph(t)
	report := func(opts func(i int) cluster.WorkerOptions) *session.ClusterReport {
		_, addrs := startWorkersWith(t, data, 2, opts)
		coord, err := cluster.NewCoordinator(addrs, cluster.Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer coord.Close()
		resp, err := session.New(d.Graph, session.Options{Workers: 4, Remote: coord}).Execute(session.Request{Query: twoHop})
		if err != nil {
			t.Fatal(err)
		}
		return resp.Cluster
	}
	on := report(func(int) cluster.WorkerOptions { return cluster.WorkerOptions{Metrics: obs.NewRegistry()} })
	off := report(func(int) cluster.WorkerOptions { return cluster.WorkerOptions{NoTelemetry: true} })
	if off.Attempts != on.Attempts {
		t.Fatalf("attempts %d != %d", off.Attempts, on.Attempts)
	}
	if on.PartialTelemetry {
		t.Fatal("telemetry run flagged partial")
	}
	if !off.PartialTelemetry {
		t.Fatal("-no-telemetry run not flagged partial")
	}
	for _, wr := range off.WorkerReports {
		if wr.Telemetry || wr.Spans != 0 {
			t.Fatalf("-no-telemetry worker report %+v", wr)
		}
	}
	// Skew attribution never depends on the bundles.
	for _, st := range off.Stages {
		if len(st.WorkerNs) != 2 {
			t.Fatalf("stage %d lost attribution without telemetry", st.Stage)
		}
	}
}

// TestClusterTelemetryMixedRoster marks the report partial when only some
// workers ship bundles — the query itself stays whole.
func TestClusterTelemetryMixedRoster(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns TCP worker meshes")
	}
	data, d := testGraph(t)
	_, addrs := startWorkersWith(t, data, 2, func(i int) cluster.WorkerOptions {
		return cluster.WorkerOptions{NoTelemetry: i == 1}
	})
	coord, err := cluster.NewCoordinator(addrs, cluster.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	s := session.New(d.Graph, session.Options{Workers: 4, Remote: coord})
	resp, err := s.Execute(session.Request{
		Query: `MATCH (p:Person)-[:knows]->(q:Person) RETURN *`,
		Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := resp.Cluster
	if !rep.PartialTelemetry {
		t.Fatal("mixed roster not flagged partial")
	}
	if !rep.WorkerReports[0].Telemetry || rep.WorkerReports[1].Telemetry {
		t.Fatalf("worker reports %+v, want only w0 shipping", rep.WorkerReports)
	}
	// The merged trace still renders — with the lanes that did ship.
	lanes := processLanes(rep.Trace)
	if !lanes["coordinator"] || !lanes["worker w0"] || lanes["worker w1"] {
		t.Fatalf("mixed-roster lanes %v, want coordinator + worker w0 only", lanes)
	}
}

// TestClusterTelemetryRetryDropsSpans: a job that crashes a worker and
// retries ships the winning attempt's spans only - the failed attempt's die
// with its collector - and the merged trace still comes back complete under
// a single trace ID.
func TestClusterTelemetryRetryDropsSpans(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns TCP worker meshes")
	}
	data, d := testGraph(t)
	workers, addrs := startWorkersWith(t, data, 3, func(i int) cluster.WorkerOptions {
		return cluster.WorkerOptions{Metrics: obs.NewRegistry()}
	})
	coord, err := cluster.NewCoordinator(addrs, cluster.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	workers[1].SetFailAfterExchanges(2)

	s := session.New(d.Graph, session.Options{Workers: 4, Remote: coord})
	resp, err := s.Execute(session.Request{
		Query: `MATCH (p1:Person)-[:knows]->(p2:Person), (p2)-[:knows]->(p3:Person) RETURN *`,
		Trace: true,
	})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	rep := resp.Cluster
	if !rep.Recovered || rep.Attempts < 2 {
		t.Fatalf("expected a recovered run, got %+v", rep)
	}
	// Each survivor shipped one attempt's worth of spans: a stage of the
	// failed attempt riding along would show up as more spans than stages.
	for _, wr := range rep.WorkerReports {
		if wr.Spans != len(rep.Stages) {
			t.Errorf("worker %s shipped %d spans for %d stages", wr.Node, wr.Spans, len(rep.Stages))
		}
	}
	// One trace identity across the whole recovered job; the merged trace
	// carries the survivors' lanes plus a coordinator lane whose attempt
	// spans cover both attempts.
	if rep.TraceID == "" || rep.Trace == nil || rep.Trace.Metadata["traceId"] != rep.TraceID {
		t.Fatalf("recovered trace identity broken: id=%q trace=%v", rep.TraceID, rep.Trace != nil)
	}
	lanes := processLanes(rep.Trace)
	if !lanes["coordinator"] || len(lanes) != 3 {
		t.Fatalf("recovered lanes %v, want coordinator + 2 survivors", lanes)
	}
	attempts := 0
	for _, ev := range rep.Trace.TraceEvents {
		if ev.PID == 0 && ev.Cat == "stage" && strings.HasPrefix(ev.Name, "attempt") {
			attempts++
		}
	}
	if attempts < 2 {
		t.Fatalf("coordinator lane shows %d attempt spans, want both", attempts)
	}
	if rep.PartialTelemetry {
		t.Fatal("winning roster all shipped; report flagged partial")
	}
}
