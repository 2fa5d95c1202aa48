package cluster_test

import (
	"fmt"
	"math"
	"net"
	"reflect"
	"testing"
	_ "unsafe" // go:linkname, below

	"gradoop/internal/cluster"
	"gradoop/internal/dataflow"
	"gradoop/internal/epgm"
	"gradoop/internal/ldbc"
	"gradoop/internal/session"
)

// twoHop is a join whose shuffles cross the workers' sockets.
const twoHop = `MATCH (p1:Person)-[:knows]->(p2:Person), (p2)-[:knows]->(p3:Person) RETURN *`

// testGraph builds the shared LDBC fixture.
func testGraph(t *testing.T) (*session.GraphData, *ldbc.Dataset) {
	t.Helper()
	env := dataflow.NewEnv(dataflow.DefaultConfig(4))
	d := ldbc.Generate(env, ldbc.Config{ScaleFactor: 0.02, Seed: 4})
	return session.NewGraphData(d.Graph), d
}

// startWorkers launches n in-process workers on loopback listeners.
func startWorkers(t *testing.T, data *session.GraphData, n int) ([]*cluster.Worker, []string) {
	t.Helper()
	workers := make([]*cluster.Worker, n)
	addrs := make([]string, n)
	for i := range workers {
		w := cluster.NewWorkerWith(fmt.Sprintf("w%d", i), data, cluster.WorkerOptions{})
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

// TestClusterBitIdentity: a job across 1, 2 and 4 worker processes reports
// what ran it - the roster, one attempt, no recovery, a record per stage.
// That its rows are the single-process engine's, byte for byte and in order,
// and its merged charges the single-process charges (each worker charges only
// its owned partitions), is internal/conformance's cluster modes.
func TestClusterBitIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns TCP worker meshes")
	}
	data, d := testGraph(t)
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			_, addrs := startWorkers(t, data, n)
			coord, err := cluster.NewCoordinator(addrs, cluster.Options{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			resp, err := session.New(d.Graph, session.Options{Workers: 4, Remote: coord}).Execute(session.Request{Query: twoHop})
			if err != nil {
				t.Fatal(err)
			}
			if rep := resp.Cluster; rep == nil || rep.Workers != n || rep.Attempts != 1 || rep.Recovered || len(rep.Stages) == 0 {
				t.Fatalf("report %+v, want workers=%d, one attempt and a record per stage", rep, n)
			}
		})
	}
}

// probeInPlaceScale is operators': the factor on n x P in the rule that sends
// a join into a leaf's scan (1 as shipped; +Inf is never, 0 whenever a leaf is
// eligible). The workers of these tests run in this process and read the same
// variable.
//
//go:linkname probeInPlaceScale gradoop/internal/operators.probeInPlaceScale
var probeInPlaceScale float64

// TestProbeInPlaceOnCluster: with the rule at never, as shipped and at
// whenever a leaf is eligible, a selective join over 1, 2 and 4 workers
// completes in one attempt at each selectivity. Every process of a job counts
// the same n, reads the same m off its copy of the store and so takes the
// same side of the rule; processes that disagreed would fail the job. That
// the rows are the single-process engine's is internal/conformance's cluster
// modes, the rule as shipped and at never and always.
func TestProbeInPlaceOnCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns TCP worker meshes")
	}
	if probeInPlaceScale != 1 {
		t.Fatalf("probeInPlaceScale reads %v: the name no longer links to operators' variable", probeInPlaceScale)
	}
	defer func() { probeInPlaceScale = 1 }()
	data, d := testGraph(t)
	common, medium, rare := d.FirstNamesBySelectivity()
	const query = `MATCH (p1:Person)-[:knows]->(p2:Person), (p2)<-[:hasCreator]-(c:Comment) WHERE p1.firstName = $firstName RETURN *`
	for _, scale := range []float64{math.Inf(1), 1, 0} {
		probeInPlaceScale = scale
		for _, n := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("scale=%v/workers=%d", scale, n), func(t *testing.T) {
				_, addrs := startWorkers(t, data, n)
				coord, err := cluster.NewCoordinator(addrs, cluster.Options{Workers: 4})
				if err != nil {
					t.Fatal(err)
				}
				defer coord.Close()
				s := session.New(d.Graph, session.Options{Workers: 4, NoResultCache: true, Remote: coord})
				for _, name := range []string{common, medium, rare} {
					resp, err := s.Execute(session.Request{Query: query, Params: map[string]epgm.PropertyValue{"firstName": epgm.PVString(name)}})
					if err != nil {
						t.Fatalf("firstName=%q: %v", name, err)
					}
					if resp.Cluster.Attempts != 1 {
						t.Fatalf("firstName=%q: %d attempts", name, resp.Cluster.Attempts)
					}
				}
			})
		}
	}
}

// TestClusterStageReport checks the predicted-vs-actual surface: shuffle
// stages must report model bytes (cost-model charge) and, with more than
// one worker, actual wire bytes on the sockets.
func TestClusterStageReport(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns TCP worker meshes")
	}
	data, d := testGraph(t)
	common, _, _ := d.FirstNamesBySelectivity()
	_, addrs := startWorkers(t, data, 2)
	coord, err := cluster.NewCoordinator(addrs, cluster.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	s := session.New(d.Graph, session.Options{Workers: 4, Remote: coord})
	for _, q := range []struct {
		name, query string
		kind        string // the stage kind the query must have put bytes on the wire in,
		stages      int    // in at least this many stages
	}{
		{"two-hop join", `MATCH (p1:Person)-[:knows]->(p2:Person), (p2)-[:knows]->(p3:Person) RETURN *`, "Shuffle", 1},
		// A join that counts its selective side: the count is a collective
		// and so is the broadcast it decides on, each in a Broadcast stage
		// of its own.
		{"selective join", `MATCH (p:Person)-[:knows]->(q:Person) WHERE p.firstName = $firstName RETURN *`, "Broadcast", 2},
	} {
		resp, err := s.Execute(session.Request{Query: q.query, Params: map[string]epgm.PropertyValue{"firstName": epgm.PVString(common)}})
		if err != nil {
			t.Fatal(err)
		}
		var modelled int
		wired := map[string]int{}
		for _, st := range resp.Cluster.Stages {
			if st.Predicted <= 0 {
				t.Fatalf("%s: stage %d (%s): no prediction", q.name, st.Stage, st.Kind)
			}
			if st.Shuffle {
				if st.ModelBytes > 0 {
					modelled++
				}
				if st.WireBytes > 0 {
					wired[st.Kind]++
				}
			} else if st.WireBytes != 0 {
				t.Fatalf("%s: stage %d (%s): wire bytes on a non-shuffle stage", q.name, st.Stage, st.Kind)
			}
		}
		if modelled == 0 {
			t.Fatalf("%s: the cost model charged no shuffle stage any bytes", q.name)
		}
		if wired[q.kind] < q.stages {
			t.Fatalf("%s: %d %s stages put bytes on the wire across 2 workers, want at least %d (wired: %v)", q.name, wired[q.kind], q.kind, q.stages, wired)
		}
	}
}

// TestClusterRecovery kills a worker mid-query (after its second collective
// exchange) and requires the re-executed job to return the bit-identical
// result, flagged as recovered.
func TestClusterRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns TCP worker meshes")
	}
	data, d := testGraph(t)
	opts := session.Options{Workers: 4}
	query := `MATCH (p1:Person)-[:knows]->(p2:Person), (p2)-[:knows]->(p3:Person) RETURN *`

	want, err := session.New(d.Graph, opts).Execute(session.Request{Query: query})
	if err != nil {
		t.Fatal(err)
	}

	workers, addrs := startWorkers(t, data, 3)
	coord, err := cluster.NewCoordinator(addrs, cluster.Options{Workers: opts.Workers})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	workers[1].SetFailAfterExchanges(2)

	copts := opts
	copts.Remote = coord
	resp, err := session.New(d.Graph, copts).Execute(session.Request{Query: query})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if resp.Cluster == nil || !resp.Cluster.Recovered || resp.Cluster.Attempts < 2 {
		t.Fatalf("expected a recovered execution, got report %+v", resp.Cluster)
	}
	if resp.Cluster.Workers != 2 {
		t.Fatalf("recovered roster size %d, want 2 survivors", resp.Cluster.Workers)
	}
	if !reflect.DeepEqual(resp.Result.Rows(), want.Result.Rows()) || resp.Count != want.Count {
		t.Fatalf("recovered rows differ from single-process rows (%d vs %d)", resp.Count, want.Count)
	}
	if coord.LiveWorkers() != 2 {
		t.Fatalf("live workers %d, want 2 after the kill", coord.LiveWorkers())
	}

	// The cluster keeps serving — and stays correct — after the loss.
	resp2, err := session.New(d.Graph, copts).Execute(session.Request{Query: query})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp2.Result.Rows(), want.Result.Rows()) {
		t.Fatal("post-recovery execution diverged")
	}
	if resp2.Cluster.Recovered || resp2.Cluster.Attempts != 1 {
		t.Fatalf("post-recovery report %+v, want a clean first attempt", resp2.Cluster)
	}
}

// TestClusterAllWorkersLost drives the roster to zero and requires a
// structured error, not a hang.
func TestClusterAllWorkersLost(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns TCP worker meshes")
	}
	data, d := testGraph(t)
	workers, addrs := startWorkers(t, data, 1)
	coord, err := cluster.NewCoordinator(addrs, cluster.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	workers[0].SetFailAfterExchanges(1)
	s := session.New(d.Graph, session.Options{Workers: 4, Remote: coord})
	_, err = s.Execute(session.Request{Query: `MATCH (p1:Person)-[:knows]->(p2:Person), (p2)-[:knows]->(p3:Person) RETURN *`})
	if err == nil {
		t.Fatal("expected an error after losing the whole roster")
	}
}

// TestClusterQueryError checks that a genuine query failure (an unknown
// parameter) propagates as an error without burning recovery attempts.
func TestClusterQueryError(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns TCP worker meshes")
	}
	data, d := testGraph(t)
	_, addrs := startWorkers(t, data, 2)
	coord, err := cluster.NewCoordinator(addrs, cluster.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	s := session.New(d.Graph, session.Options{Workers: 4, Remote: coord})
	_, err = s.Execute(session.Request{Query: `MATCH (p:Person) WHERE p.firstName = $missing RETURN *`})
	if err == nil {
		t.Fatal("expected a parameter error")
	}
	if coord.LiveWorkers() != 2 {
		t.Fatalf("query error must not kill workers; live=%d", coord.LiveWorkers())
	}
}
