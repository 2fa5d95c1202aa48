package cluster_test

import (
	"fmt"
	"math"
	"net"
	"reflect"
	"sort"
	"testing"
	_ "unsafe" // go:linkname, below

	"gradoop/internal/cluster"
	"gradoop/internal/dataflow"
	"gradoop/internal/epgm"
	"gradoop/internal/ldbc"
	"gradoop/internal/session"
)

// testQueries exercises the distributed engine end to end: scans, selective
// parameterized filters, multi-hop repartition joins and a triangle — the
// shapes whose shuffles actually cross worker sockets.
var testQueries = []struct {
	name  string
	query string
	param bool
}{
	{"scan", `MATCH (p:Person) RETURN *`, false},
	{"filter", `MATCH (p:Person) WHERE p.firstName = $firstName RETURN *`, true},
	{"expand", `MATCH (p:Person)-[:knows]->(q:Person) RETURN *`, false},
	{"twohop", `MATCH (p1:Person)-[:knows]->(p2:Person), (p2)-[:knows]->(p3:Person) RETURN *`, false},
	{"located", `MATCH (person:Person)-[:isLocatedIn]->(city:City), (person)-[:studyAt]->(u:University) RETURN *`, false},
	{"triangle", `MATCH (p1:Person)-[:knows]->(p2:Person), (p2)-[:knows]->(p3:Person), (p1)-[:knows]->(p3) RETURN *`, false},
	// What the row codec has to carry besides plain id columns: NULL columns
	// (OPTIONAL MATCH), path columns grown hop by hop in either direction
	// (path states cross the sockets with and without a via list), buckets
	// and result partitions of zero rows, and rows replicated by an
	// all-gather (a cross product is a broadcast join).
	{"optional", `MATCH (p:Person) OPTIONAL MATCH (p)-[s:studyAt]->(u:University) RETURN *`, false},
	{"varlen", `MATCH (p:Person)-[e:knows*1..3]->(q:Person) WHERE p.firstName = $firstName RETURN *`, true},
	{"varlen-reverse", `MATCH (p:Person)<-[e:knows*1..3]-(q:Person) WHERE p.firstName = $firstName RETURN *`, true},
	{"norows", `MATCH (p:Person)-[:knows]->(q:Person) WHERE p.firstName = 'nobody is called this' RETURN *`, false},
	{"broadcast", `MATCH (p:Person), (u:University) WHERE p.firstName = $firstName RETURN *`, true},
}

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
		w := cluster.NewWorker(fmt.Sprintf("w%d", i), data, nil)
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

// run executes every test query against a session and returns the raw
// responses, keyed by query name.
func run(t *testing.T, s *session.Session, firstName string) map[string]*session.Response {
	t.Helper()
	out := map[string]*session.Response{}
	for _, q := range testQueries {
		req := session.Request{Query: q.query}
		if q.param {
			req.Params = map[string]epgm.PropertyValue{"firstName": epgm.PVString(firstName)}
		}
		resp, err := s.Execute(req)
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		out[q.name] = resp
	}
	return out
}

// TestClusterBitIdentity is the tentpole's core guarantee: the same
// session-level queries, executed across 1, 2 and 4 worker processes,
// return rows byte-identical — including order — to the single-process
// engine, and the merged metrics reproduce the single-process charges. That
// holds for a join that broadcasts its small side into a leaf's scan too
// ("filter"-like queries over the pinned store take that path on both
// sides of the comparison): its rows follow the scan's partitions, which are
// cut from the same array in every process. Across the two ways to join the
// order differs - rows without ORDER BY are unordered - and
// TestProbeInPlaceOnCluster compares those as bags.
func TestClusterBitIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns TCP worker meshes")
	}
	data, d := testGraph(t)
	common, _, _ := d.FirstNamesBySelectivity()
	opts := session.Options{Workers: 4}

	ref := run(t, session.New(d.Graph, opts), common)
	for name, want := range ref {
		// A parity check over no rows checks nothing: only the query written
		// to match nothing may do so.
		if (want.Count == 0) != (name == "norows") {
			t.Fatalf("%s: %d rows in process", name, want.Count)
		}
	}

	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			_, addrs := startWorkers(t, data, n)
			coord, err := cluster.NewCoordinator(addrs, cluster.Options{Workers: opts.Workers})
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			copts := opts
			copts.Remote = coord
			got := run(t, session.New(d.Graph, copts), common)
			for name, want := range ref {
				resp := got[name]
				if resp.Count != want.Count {
					t.Fatalf("%s: count %d != single-process %d", name, resp.Count, want.Count)
				}
				if !reflect.DeepEqual(resp.Result.Rows(), want.Result.Rows()) {
					t.Fatalf("%s: distributed rows differ from single-process rows", name)
				}
				if !reflect.DeepEqual(resp.Columns, want.Columns) {
					t.Fatalf("%s: columns %v != %v", name, resp.Columns, want.Columns)
				}
				if resp.Cluster == nil {
					t.Fatalf("%s: missing cluster report", name)
				}
				if resp.Cluster.Workers != n || resp.Cluster.Attempts != 1 || resp.Cluster.Recovered {
					t.Fatalf("%s: report %+v, want workers=%d attempts=1", name, resp.Cluster, n)
				}
				if len(resp.Cluster.Stages) == 0 {
					t.Fatalf("%s: no stage records", name)
				}
				// Each worker charges only its owned partitions, so the merged
				// counters must reproduce the single-process run exactly.
				if resp.Metrics.TotalCPU != want.Metrics.TotalCPU {
					t.Fatalf("%s: merged TotalCPU %d != single-process %d",
						name, resp.Metrics.TotalCPU, want.Metrics.TotalCPU)
				}
				if resp.Metrics.TotalNet != want.Metrics.TotalNet {
					t.Fatalf("%s: merged TotalNet %d != single-process %d",
						name, resp.Metrics.TotalNet, want.Metrics.TotalNet)
				}
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
// whenever a leaf is eligible, selective joins over 1, 2 and 4 workers return
// the bag of rows the single-process engine returns with the rule at never.
// Every process of a job counts the same n, reads the same m off its copy of
// the store and so takes the same side of the rule: a job whose processes
// disagreed would wait on each other's collectives until the test timed out.
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
	queries := []string{
		`MATCH (person:Person)<-[:hasCreator]-(message:Comment|Post) WHERE person.firstName = $firstName RETURN *`,
		`MATCH (p1:Person)-[:knows]->(p2:Person), (p2)<-[:hasCreator]-(c:Comment) WHERE p1.firstName = $firstName RETURN *`,
		`MATCH (p:Person)-[:isLocatedIn]->(city:City), (p)-[s:studyAt]->(u:University) WHERE s.classYear > 2010 AND p.firstName = $firstName RETURN *`,
		`MATCH (p:Person)-[:knows]->(q:Person) WHERE p.firstName = 'nobody is called this' RETURN *`,
	}
	opts := session.Options{Workers: 4, NoResultCache: true}
	bags := func(s *session.Session) [][]string {
		var out [][]string
		for _, q := range queries {
			for _, name := range []string{common, medium, rare} {
				resp, err := s.Execute(session.Request{Query: q, Params: map[string]epgm.PropertyValue{"firstName": epgm.PVString(name)}})
				if err != nil {
					t.Fatalf("%s (firstName=%q): %v", q, name, err)
				}
				rows := make([]string, 0, resp.Count)
				for _, r := range resp.Result.Rows() {
					rows = append(rows, r.String())
				}
				sort.Strings(rows)
				out = append(out, rows)
			}
		}
		return out
	}
	probeInPlaceScale = math.Inf(1)
	want := bags(session.New(d.Graph, opts))
	matched := 0
	for _, rows := range want {
		matched += len(rows)
	}
	if matched == 0 {
		t.Fatal("the queries match nothing on the test graph")
	}
	for _, scale := range []float64{math.Inf(1), 1, 0} {
		probeInPlaceScale = scale
		for _, n := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("scale=%v/workers=%d", scale, n), func(t *testing.T) {
				_, addrs := startWorkers(t, data, n)
				coord, err := cluster.NewCoordinator(addrs, cluster.Options{Workers: opts.Workers})
				if err != nil {
					t.Fatal(err)
				}
				defer coord.Close()
				copts := opts
				copts.Remote = coord
				if got := bags(session.New(d.Graph, copts)); !reflect.DeepEqual(got, want) {
					t.Fatalf("the cluster's rows are not the single-process engine's")
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
