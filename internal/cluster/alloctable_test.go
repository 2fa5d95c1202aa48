package cluster_test

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"testing"

	"gradoop/internal/benchkit"
	"gradoop/internal/cluster"
	"gradoop/internal/dataflow"
	"gradoop/internal/ldbc"
	"gradoop/internal/obs"
	"gradoop/internal/session"
)

var allocTable = flag.Bool("alloc-table", false, "run TestAllocTable (make alloc-table)")

// analyticClasses are the request classes of the benchmark's analytic and
// cluster_2w workloads.
var analyticClasses = []string{"q2_common", "q4", "q5", "q6"}

// TestAllocTable is the cluster's section of make alloc-table, a tool and not
// a check: the four analytic classes - cluster_2w's - served through a session
// whose jobs run on a coordinator and two workers over loopback TCP, all in
// this process, as the benchmark runs them. Over SF 3 (seed 2017, 4
// partitions, result cache off) it prints KiB and heap objects a request per
// class, coordinator and workers together, then the flat table of bytes and
// objects by allocating function over one more pass (benchkit.AllocTable), and
// over another the same split by the phase of a job that pays them
// (benchkit.PhaseTable, jobPhases). The workers share one copy of the graph,
// not one each read from CSV, and nothing goes over HTTP: the per-class
// numbers sit a little under the benchmark's alloc_kb_per_req and move as it
// moves.
func TestAllocTable(t *testing.T) {
	if !*allocTable {
		t.Skip("a tool: run it with make alloc-table")
	}
	gen := ldbc.Generate(dataflow.NewEnv(dataflow.DefaultConfig(1)), ldbc.Config{ScaleFactor: 3, Seed: 2017})
	data := session.NewGraphData(gen.Graph)
	var addrs []string
	for i := 0; i < 2; i++ {
		// A registry of its own, as the benchmark gives each worker: what the
		// telemetry plane ships is the registry's snapshot.
		w := cluster.NewWorkerWith(fmt.Sprintf("w%d", i+1), data, cluster.WorkerOptions{Metrics: obs.NewRegistry()})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go w.Serve(ln)
		defer w.Wait()
		defer w.Close()
		addrs = append(addrs, ln.Addr().String())
	}
	coord, err := cluster.NewCoordinator(addrs, cluster.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	s := session.New(gen.Graph, session.Options{Workers: 4, NoResultCache: true, Remote: coord})
	defer s.Close()

	var classes []benchkit.RequestClass
	for _, c := range benchkit.RequestClasses(gen) {
		if slices.Contains(analyticClasses, c.Name) {
			classes = append(classes, c)
		}
	}
	names := make([]string, len(classes))
	for i, c := range classes {
		names[i] = c.Name
	}
	serve := func(i int) int64 {
		r, err := s.Execute(session.Request{Query: classes[i].Query, Params: classes[i].Params})
		if err != nil {
			t.Fatalf("%s: %v", classes[i].Name, err)
		}
		if r.Cluster == nil || r.Cluster.Attempts != 1 {
			t.Fatalf("%s: not one clean cluster attempt: %+v", classes[i].Name, r.Cluster)
		}
		if _, err := r.WriteRows(io.Discard); err != nil {
			t.Fatalf("%s: %v", classes[i].Name, err)
		}
		return r.Count
	}
	benchkit.AllocTable(os.Stdout, names, serve, 8, 12)
	benchkit.PhaseTable(os.Stdout, names, serve, jobPhases)
}

// jobPhases tell a cluster request's costs apart by call stack, each by the
// functions that pay it, on the coordinator and on the workers: first a job's
// fixed costs, then the frames of rows - sent, received by a worker, received
// by the coordinator - then what is left on the coordinator.
// The rest is the workers' run of the query. The rules name the functions of
// this commit and of the ones before protocol version 7 (a telemetry bundle of
// spans and registry on every job, a JSON done report), so that the table can
// be run on a parent commit too.
var jobPhases = []benchkit.Phase{
	// The worker's registry snapshot, taken and encoded on the worker and
	// decoded on the coordinator: the heartbeat's bundle, or every job's.
	{Name: "registry snapshot", Rules: [][]string{
		{"cluster.(*Worker).shipRegistry"},
		{"obs.(*Registry).Snapshot", "cluster."},
		{"obs.(*Snapshot).Layout", "cluster."},
	}},
	{Name: "telemetry encode/decode (spans)", Rules: [][]string{
		{"cluster.(*Worker).shipSpans"},
		{"cluster.(*Worker).shipTelemetry"},
		{"cluster.decodeTelemetryBundle"},
	}},
	{Name: "done report", Rules: [][]string{
		{"cluster.stageRecords"},
		{"cluster.encodeJobDone"},
		{"cluster.decodeJobDone"},
		{"encoding/json.Marshal", "cluster.(*Worker).runJob"},
		{"encoding/json.Unmarshal", "cluster.(*Coordinator).readMember"},
		{"cluster.foldStages"},
	}},
	{Name: "job spec encode/decode", Rules: [][]string{
		{"encoding/json.Marshal", "cluster.(*Coordinator).launchAttempt"},
		{"wire.AppendParams", "cluster.(*Coordinator).ExecuteRemote"},
		{"cluster.(*Worker).serveControl"},
		{"wire.ReadParams"},
	}},
	{Name: "plan fingerprint", Rules: [][]string{{"planner.(*QueryPlan).Fingerprint"}}},
	{Name: "worker planning", Rules: [][]string{
		{"core.PrepareWith"},
		{"cluster.(*Worker).plan"},
	}},
	{Name: "mesh set-up", Rules: [][]string{
		{"cluster.(*Worker).connectMesh"},
		{"cluster.(*Worker).runtime"},
		{"cluster.(*jobRuntime).addPeer"},
		{"cluster.(*jobRuntime).waitPeer"},
		{"cluster.(*Worker).handleConn", "-cluster.(*jobRuntime).routePeer"},
	}},
	// The spans, and what an operator renders for its span before its run.
	{Name: "tracing", Rules: [][]string{
		{"@trace."},
		{"operators.traced", "-trace.(*Collector).InOp"},
	}},
	// The frames of rows: what the sending side pays, what a worker's peer
	// links read (shuffles and all-gathers, into the attempt's receive arena
	// since decision 38), and what the coordinator reads (the results).
	{Name: "frames of rows: send", Rules: [][]string{
		{"cluster.(*peerTransport)."},
		{"cluster.(*sender).run"},
		{"cluster.shipResults"},
	}},
	{Name: "frames of rows: worker receive", Rules: [][]string{{"cluster.(*jobRuntime).routePeer"}}},
	{Name: "frames of rows: coordinator receive (results)", Rules: [][]string{{"cluster.(*Coordinator).readMember"}}},
	{Name: "coordinator: session, bind, assembly", Rules: [][]string{
		{"session.(*Session).Execute"},
		{"session.(*Response).WriteRows"},
	}},
}
