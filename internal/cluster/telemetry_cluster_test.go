package cluster_test

import (
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"gradoop/internal/cluster"
	"gradoop/internal/obs"
	"gradoop/internal/session"
	"gradoop/internal/trace"
)

// startWorkersWith launches n in-process workers with explicit options
// (metrics registries) on loopback listeners.
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
	if len(rep.WorkerReports) != 2 {
		t.Fatalf("%d worker reports, want 2", len(rep.WorkerReports))
	}
	for _, wr := range rep.WorkerReports {
		if wr.Spans == 0 || wr.WallNs <= 0 {
			t.Fatalf("worker report %+v, want spans and wall time", wr)
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

// TestClusterTelemetryParity is the cost pin's behavioral half: on one
// two-worker cluster a traced and an untraced request take the same attempts
// and return the same rows, and their skew tables - derived from the stage
// records, not the spans - attribute the same stages to both workers. Only the
// traced one carries spans. That the rows are the reference's is
// internal/conformance's traced cluster mode.
func TestClusterTelemetryParity(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns TCP worker meshes")
	}
	data, d := testGraph(t)
	_, addrs := startWorkersWith(t, data, 2, func(int) cluster.WorkerOptions {
		return cluster.WorkerOptions{Metrics: obs.NewRegistry()}
	})
	coord, err := cluster.NewCoordinator(addrs, cluster.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	s := session.New(d.Graph, session.Options{Workers: 4, NoResultCache: true, Remote: coord})
	run := func(traced bool) *session.Response {
		t.Helper()
		resp, err := s.Execute(session.Request{Query: twoHop, Trace: traced})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	off, on := run(false), run(true)
	if off.Cluster.Attempts != on.Cluster.Attempts {
		t.Fatalf("attempts %d untraced, %d traced", off.Cluster.Attempts, on.Cluster.Attempts)
	}
	if !reflect.DeepEqual(off.Result.Rows(), on.Result.Rows()) {
		t.Fatal("a traced request's rows differ from an untraced one's")
	}
	if off.Cluster.Trace != nil || on.Cluster.Trace == nil {
		t.Fatalf("merged trace untraced %v, traced %v: want only the traced request's", off.Cluster.Trace != nil, on.Cluster.Trace != nil)
	}
	if len(off.Cluster.Stages) != len(on.Cluster.Stages) {
		t.Fatalf("%d stages untraced, %d traced", len(off.Cluster.Stages), len(on.Cluster.Stages))
	}
	for i, a := range off.Cluster.Stages {
		b := on.Cluster.Stages[i]
		if a.Stage != b.Stage || a.Op != b.Op || len(a.WorkerNs) != 2 || len(b.WorkerNs) != 2 {
			t.Fatalf("stage %d attributed %d %q to %d workers untraced, %d %q to %d traced",
				i, a.Stage, a.Op, len(a.WorkerNs), b.Stage, b.Op, len(b.WorkerNs))
		}
	}
}

// TestClusterTelemetryMixedRoster: a registry snapshot lost on the way in - a
// proxy in front of w1 flips the last byte of every pong body that carries
// one - degrades the telemetry and nothing else. The coordinator counts each
// drop and keeps none of w1's series, the pongs still keep w1 alive, and a
// traced request over both workers has the single-process rows in one
// attempt and a lane for each worker.
func TestClusterTelemetryMixedRoster(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns TCP worker meshes")
	}
	const query = `MATCH (p:Person)-[:knows]->(q:Person) RETURN *`
	data, d := testGraph(t)
	want, err := session.New(d.Graph, session.Options{Workers: 4}).Execute(session.Request{Query: query})
	if err != nil {
		t.Fatal(err)
	}
	_, addrs := startWorkersWith(t, data, 2, func(int) cluster.WorkerOptions {
		return cluster.WorkerOptions{Metrics: obs.NewRegistry()}
	})
	addrs[1], _ = proxy(t, addrs[1], func(typ byte, payload []byte) {
		if typ == cluster.FramePong && len(payload) > 4 {
			payload[len(payload)-5] ^= 0xff // the snapshot's last byte, ahead of its checksum
		}
	})
	reg := obs.NewRegistry()
	coord, err := cluster.NewCoordinator(addrs, cluster.Options{Workers: 4, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	// dropped waits for the coordinator to have dropped n snapshots: the one
	// w1 opened its connection with, then the one after its job.
	dropped := func(n float64) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); counter(reg, "gradoop_cluster_telemetry_dropped_total") < n; time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%v corrupt snapshots counted, want %v", counter(reg, "gradoop_cluster_telemetry_dropped_total"), n)
			}
		}
	}
	dropped(1)
	resp, err := session.New(d.Graph, session.Options{Workers: 4, Remote: coord}).Execute(session.Request{Query: query, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	rep := resp.Cluster
	if rep.Attempts != 1 || !reflect.DeepEqual(resp.Result.Rows(), want.Result.Rows()) || resp.Count != want.Count {
		t.Fatalf("%d rows in %d attempts, want the %d single-process rows in one", resp.Count, rep.Attempts, want.Count)
	}
	if lanes := processLanes(rep.Trace); len(lanes) != 3 {
		t.Fatalf("lanes %v, want coordinator + worker w0 + worker w1", lanes)
	}
	dropped(2)
	time.Sleep(600 * time.Millisecond) // a heartbeat more: a pong that only a snapshot failed keeps its member
	if n := coord.LiveWorkers(); n != 2 {
		t.Fatalf("%d of 2 members alive: a corrupt snapshot cost its member", n)
	}
	for _, wm := range coord.WorkerMetrics() {
		if wm.Node == "w1" {
			t.Fatal("w1's corrupt snapshot was kept")
		}
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
}

// counter reads a counter of a worker's registry (0 when it has no sample).
func counter(r *obs.Registry, name string) float64 {
	snap := r.Snapshot()
	for _, f := range snap.Families {
		if f.Name == name && len(f.Samples) > 0 {
			return f.Samples[0].Value
		}
	}
	return 0
}

// federated is the coordinator's federated exposition of its workers'
// registries, as /metrics appends it.
func federated(coord *cluster.Coordinator) string {
	var feds []obs.FederatedSnapshot
	for _, m := range coord.WorkerMetrics() {
		feds = append(feds, obs.FederatedSnapshot{Label: m.Node, Snap: m.Snap})
	}
	var sb strings.Builder
	obs.WriteFederated(&sb, "gradoop_cluster_", "worker", feds)
	return sb.String()
}

// TestClusterShipsSpansOnRequest: a worker's done report carries an
// attempt's spans only when the request asked for a trace. A proxy in front of
// each worker reads its done reports: an untraced request's carry none and
// its report still has every worker's wall time and stage records; a traced
// one's carry a span a stage.
func TestClusterShipsSpansOnRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns TCP worker meshes")
	}
	data, d := testGraph(t)
	_, addrs := startWorkersWith(t, data, 2, func(i int) cluster.WorkerOptions {
		return cluster.WorkerOptions{Metrics: obs.NewRegistry()}
	})
	var mu sync.Mutex
	spans := make([][]int, len(addrs)) // per worker, the spans of each done report
	for i := range addrs {
		addrs[i], _ = proxy(t, addrs[i], func(typ byte, payload []byte) {
			if typ != cluster.FrameJobDone {
				return
			}
			r, err := cluster.DoneReport(payload)
			if err != nil {
				t.Errorf("w%d's done report does not decode: %v", i, err)
			}
			mu.Lock()
			spans[i] = append(spans[i], r.Spans)
			mu.Unlock()
		})
	}
	coord, err := cluster.NewCoordinator(addrs, cluster.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	s := session.New(d.Graph, session.Options{Workers: 4, Remote: coord, NoResultCache: true})
	// shipped is what each worker's done report of the last request carried.
	shipped := func() []int {
		mu.Lock()
		defer mu.Unlock()
		var last []int
		for _, n := range spans {
			last = append(last, n[len(n)-1])
		}
		return last
	}

	resp, err := s.Execute(session.Request{Query: twoHop})
	if err != nil {
		t.Fatal(err)
	}
	if got := shipped(); got[0] != 0 || got[1] != 0 {
		t.Fatalf("an untraced request's done reports carried %v spans, want none", got)
	}
	rep := resp.Cluster
	if rep.Trace != nil {
		t.Fatal("an untraced request has a merged trace")
	}
	for _, wr := range rep.WorkerReports {
		if wr.WallNs <= 0 || wr.Spans != len(rep.Stages) {
			t.Fatalf("untraced worker report %+v, want wall time and %d stage records", wr, len(rep.Stages))
		}
	}

	resp, err = s.Execute(session.Request{Query: twoHop, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, stages := shipped(), len(resp.Cluster.Stages); got[0] != stages || got[1] != stages {
		t.Fatalf("a traced request's done reports carried %v spans, want %d each", got, stages)
	}
}

// TestClusterRegistryRidesTheHeartbeat: a worker's registry reaches the
// federated /metrics on the heartbeat: the job a worker ran shows in its
// gradoop_cluster_worker_jobs_total within a heartbeat or so - 2 s at most -
// and a worker that runs no job ships no snapshot on its pongs, only the one
// its connection opened with.
func TestClusterRegistryRidesTheHeartbeat(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns TCP worker meshes")
	}
	data, d := testGraph(t)
	regs := []*obs.Registry{obs.NewRegistry(), obs.NewRegistry()}
	_, addrs := startWorkersWith(t, data, 2, func(i int) cluster.WorkerOptions {
		return cluster.WorkerOptions{Metrics: regs[i]}
	})
	coord, err := cluster.NewCoordinator(addrs, cluster.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	snapshots := func() (n []float64) {
		for _, r := range regs {
			n = append(n, counter(r, "gradoop_worker_registry_snapshots_total"))
		}
		return n
	}
	// idle holds the snapshot counters at want over three heartbeats.
	idle := func(want float64) {
		t.Helper()
		time.Sleep(1600 * time.Millisecond)
		if got := snapshots(); got[0] != want || got[1] != want {
			t.Fatalf("idle workers shipped %v registry snapshots, want %v each", got, want)
		}
	}
	idle(1)
	for _, wm := range coord.WorkerMetrics() {
		if wm.Snap == nil {
			t.Fatalf("worker %s: no snapshot from the connection's opening", wm.Node)
		}
	}

	s := session.New(d.Graph, session.Options{Workers: 4, Remote: coord})
	if _, err := s.Execute(session.Request{Query: twoHop}); err != nil {
		t.Fatal(err)
	}
	ended := time.Now()
	for _, w := range []string{"w0", "w1"} {
		want := `gradoop_cluster_worker_jobs_total{worker="` + w + `"} 1` + "\n"
		for !strings.Contains(federated(coord), want) {
			if time.Since(ended) > 2*time.Second {
				t.Fatalf("2 s after the job the federated exposition lacks %q:\n%s", want, federated(coord))
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	t.Logf("the job reached the federated /metrics %v after it ended", time.Since(ended))
	idle(2)
}
