package cluster

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"weak"

	"gradoop/internal/baseline"
	"gradoop/internal/core"
	"gradoop/internal/cypher"
	"gradoop/internal/dataflow"
	"gradoop/internal/epgm"
	"gradoop/internal/ldbc"
	"gradoop/internal/obs"
	"gradoop/internal/operators"
	"gradoop/internal/session"
	"gradoop/internal/stats"
	"gradoop/internal/trace"
)

// joinQuery is a two-hop join whose shuffles cross the workers' sockets.
const joinQuery = `MATCH (p1:Person)-[:knows]->(p2:Person), (p2)-[:knows]->(p3:Person) RETURN *`

// serveWorker starts a worker over data, with a registry of its own, on a
// loopback listener, and returns it and its address.
func serveWorker(t *testing.T, node string, data *session.GraphData) (*Worker, string) {
	t.Helper()
	w := NewWorkerWith(node, data, WorkerOptions{Metrics: obs.NewRegistry()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go w.Serve(ln)
	t.Cleanup(w.Wait)
	t.Cleanup(w.Close)
	return w, ln.Addr().String()
}

// snapshotCluster is a session over g whose jobs run, with the result cache
// off, on a coordinator dialled to n workers over g's store.
func snapshotCluster(t *testing.T, g *epgm.LogicalGraph, n int) (*session.Session, *Coordinator, []*Worker) {
	t.Helper()
	data := session.NewGraphData(g)
	var ws []*Worker
	var addrs []string
	for i := range n {
		w, addr := serveWorker(t, fmt.Sprintf("w%d", i), data)
		ws, addrs = append(ws, w), append(addrs, addr)
	}
	coord, err := NewCoordinator(addrs, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	s := session.New(g, session.Options{Workers: 4, NoResultCache: true, Remote: coord})
	t.Cleanup(s.Close)
	return s, coord, ws
}

// plans reports how many of w's job attempts built their plan and how many
// found it in the worker's cache.
func plans(w *Worker) (built, reused int64) {
	return w.winst.plansBuilt.Value(), w.winst.plansReused.Value()
}

// shipped reports the id of the statistics snapshot each member's connection
// was last sent: how many snapshots it has been sent.
func shipped(c *Coordinator) []uint64 {
	var ids []uint64
	for _, m := range c.members {
		m.mu.Lock()
		ids = append(ids, m.statsID)
		m.mu.Unlock()
	}
	return ids
}

// sortedRows renders rows a line each, sorted: a bag of rows.
func sortedRows(rows []core.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r.Values)
	}
	slices.Sort(out)
	return out
}

// oracle is the brute-force reference's answer to the pattern-only RETURN *
// query over g under a session's default semantics, its rows in the order of
// cols, sorted.
func oracle(t *testing.T, g *epgm.LogicalGraph, query string, cols []string) []string {
	t.Helper()
	ast, err := cypher.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	qg, err := cypher.BuildQueryGraph(ast, nil)
	if err != nil {
		t.Fatal(err)
	}
	var rows []core.Row
	for _, b := range baseline.NewReference(g).Match(qg, operators.Morphism{Vertex: operators.Homomorphism, Edge: operators.Isomorphism}) {
		row := core.Row{}
		for _, c := range cols {
			row.Values = append(row.Values, epgm.PVInt(int64(b.Vertices[c])))
		}
		rows = append(rows, row)
	}
	return sortedRows(rows)
}

// TestWorkerPlansOncePerSnapshot: ten jobs of one query plan once per worker,
// on the statistics the coordinator shipped once per connection.
func TestWorkerPlansOncePerSnapshot(t *testing.T) {
	s, coord, ws := snapshotCluster(t, tinyGraph(), 2)
	for range 10 {
		if _, err := s.Execute(session.Request{Query: joinQuery}); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range ws {
		if built, reused := plans(w); built != 1 || reused != 9 {
			t.Errorf("worker %s built %d plans and reused %d over ten jobs, want 1 and 9", w.node, built, reused)
		}
	}
	if ids := shipped(coord); !slices.Equal(ids, []uint64{1, 1}) {
		t.Errorf("snapshots shipped per connection: %v, want one each", ids)
	}
}

// TestSwapGraphReshipsTheSnapshot: a graph swap gives the session new
// statistics, even of identical content; the coordinator ships them once per
// connection ahead of the next job, each worker plans the query again, once,
// and the rows stay the reference's.
func TestSwapGraphReshipsTheSnapshot(t *testing.T) {
	g := tinyGraph()
	s, coord, ws := snapshotCluster(t, g, 2)
	rows := func() []string {
		t.Helper()
		var got []string
		for range 2 {
			resp, err := s.Execute(session.Request{Query: joinQuery})
			if err != nil {
				t.Fatal(err)
			}
			if got = sortedRows(resp.Result.Rows()); len(got) == 0 {
				t.Fatal("the query matched nothing: it tests nothing")
			}
			if want := oracle(t, g, joinQuery, resp.Columns); !slices.Equal(got, want) {
				t.Fatalf("%d rows differ from the reference's %d", len(got), len(want))
			}
		}
		return got
	}
	before := rows()
	s.SwapGraph(g)
	after := rows()
	if !slices.Equal(before, after) {
		t.Fatal("the rows changed with a swap to the same graph")
	}
	if ids := shipped(coord); !slices.Equal(ids, []uint64{2, 2}) {
		t.Errorf("snapshots shipped per connection: %v, want two each", ids)
	}
	for _, w := range ws {
		if built, reused := plans(w); built != 2 || reused != 2 {
			t.Errorf("worker %s built %d plans and reused %d, want one of each per snapshot", w.node, built, reused)
		}
	}
}

// TestConcurrentFirstJobs: eight requests on a coordinator nothing has run on
// yet all race to be the first job on each connection. Every one succeeds,
// because the snapshot is queued ahead of whichever job frame is first, and
// each connection is sent it once.
func TestConcurrentFirstJobs(t *testing.T) {
	s, coord, _ := snapshotCluster(t, tinyGraph(), 2)
	queries := []string{
		joinQuery,
		`MATCH (p:Person) RETURN *`,
		`MATCH (p:Person)-[:knows]->(q:Person) RETURN *`,
		`MATCH (c:Comment)-[:hasCreator]->(p:Person) RETURN *`,
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := s.Execute(session.Request{Query: queries[i%len(queries)]})
			if err == nil && resp.Cluster.Attempts != 1 {
				err = fmt.Errorf("%d attempts", resp.Cluster.Attempts)
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if ids := shipped(coord); !slices.Equal(ids, []uint64{1, 1}) {
		t.Errorf("snapshots shipped per connection: %v, want one each", ids)
	}
}

// control is a coordinator's end of a control connection, driven by hand.
type control struct {
	t    *testing.T
	addr string
	conn net.Conn
	br   *bufio.Reader
}

func dialControl(t *testing.T, addr string) *control {
	t.Helper()
	conn, br, _, err := dialHello(addr, hello{Magic: protoMagic, Version: protoVersion, Role: roleControl})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &control{t: t, addr: addr, conn: conn, br: br}
}

func (c *control) send(typ byte, v any) {
	c.t.Helper()
	var err error
	if spec, ok := v.(*jobSpec); ok {
		err = writeFrame(c.conn, typ, encodeJobSpec(spec))
	} else {
		err = writeJSONFrame(c.conn, typ, v)
	}
	if err != nil {
		c.t.Fatal(err)
	}
}

// run sends job, a job of query on snapshot id with fingerprint fp that the
// worker runs alone, and returns its done report.
func (c *control) run(job uint64, query string, id uint64, fp string) jobDone {
	c.t.Helper()
	c.send(frameJob, &jobSpec{JobID: job, Query: query, Snapshot: id, Workers: 4, Owner: []int{0, 0, 0, 0},
		Procs: []procSpec{{Node: "w0", Addr: c.addr}}, Fingerprint: fp})
	c.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	for {
		typ, payload, err := readFrame(c.br, nil)
		if err != nil {
			c.t.Fatalf("job %d: %v", job, err)
		}
		if typ != frameJobDone {
			continue // a pong
		}
		body, err := sealedBody(payload)
		if err != nil {
			c.t.Fatal(err)
		}
		done, err := decodeJobDone(body)
		if err != nil {
			c.t.Fatal(err)
		}
		if done.JobID == job {
			return *done
		}
	}
}

// TestCachedPlanIsHeldToTheFingerprint: a job whose plan the worker has
// cached is still held to the coordinator's fingerprint, and refused when it
// differs.
func TestCachedPlanIsHeldToTheFingerprint(t *testing.T) {
	g := tinyGraph()
	w, addr := serveWorker(t, "w0", session.NewGraphData(g))
	st := stats.Collect(g)
	prep, err := core.PrepareWith(st, joinQuery, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c := dialControl(t, addr)
	c.send(frameStats, statsMsg{ID: 1, Stats: st})
	if done := c.run(1, joinQuery, 1, prep.Fingerprint()); done.Error != "" {
		t.Fatal(done.Error)
	}
	done := c.run(2, joinQuery, 1, "0123456789abcdef")
	if !strings.Contains(done.Error, "plan fingerprint mismatch (coordinator 0123456789abcdef, worker "+prep.Fingerprint()+")") {
		t.Fatalf("a cached plan of another fingerprint ran: %q", done.Error)
	}
	if built, reused := plans(w); built != 1 || reused != 1 {
		t.Fatalf("%d plans built and %d reused, want the second job to be a cache hit", built, reused)
	}
}

// TestJobTakesTheSnapshotBeforeIt: a job plans on the last snapshot its
// connection delivered before the job frame - S1, A, S2, B runs A on S1 and B
// on S2 - and one that names any other fails with a structured error without
// planning.
func TestJobTakesTheSnapshotBeforeIt(t *testing.T) {
	g := tinyGraph()
	w, addr := serveWorker(t, "w0", session.NewGraphData(g))
	st := stats.Collect(g)
	prep, err := core.PrepareWith(st, joinQuery, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fp := prep.Fingerprint()
	c := dialControl(t, addr)
	if done := c.run(1, joinQuery, 1, fp); !strings.Contains(done.Error, "names statistics snapshot 1, which its control connection has not delivered") {
		t.Fatalf("a job ran on a snapshot nobody sent: %q", done.Error)
	}
	c.send(frameStats, statsMsg{ID: 1, Stats: st})
	if done := c.run(2, joinQuery, 1, fp); done.Error != "" {
		t.Fatal(done.Error)
	}
	c.send(frameStats, statsMsg{ID: 2, Stats: st})
	if done := c.run(3, joinQuery, 2, fp); done.Error != "" {
		t.Fatal(done.Error)
	}
	if done := c.run(4, joinQuery, 1, fp); !strings.Contains(done.Error, "(the last it delivered is 2)") {
		t.Fatalf("a job ran on a snapshot its connection replaced: %q", done.Error)
	}
	if built, reused := plans(w); built != 2 || reused != 0 {
		t.Fatalf("%d plans built and %d reused, want one per snapshot and none for a refused job", built, reused)
	}
}

// TestWorkerRefusesForeignStatistics: a worker started on another dataset
// than the coordinator's fails every job on the coordinator's statistics, and
// says why with both counts, instead of returning rows of its own graph.
func TestWorkerRefusesForeignStatistics(t *testing.T) {
	g := tinyGraph()
	other := ldbc.Generate(dataflow.NewEnv(dataflow.DefaultConfig(4)), ldbc.Config{ScaleFactor: 0.03, Seed: 4}).Graph
	_, addr := serveWorker(t, "w0", session.NewGraphData(other))
	coord, err := NewCoordinator([]string{addr}, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	s := session.New(g, session.Options{Workers: 4, NoResultCache: true, Remote: coord})
	defer s.Close()
	want := fmt.Sprintf("describes %d vertices and %d edges, this worker's graph has %d and %d",
		g.VertexCount(), g.EdgeCount(), other.VertexCount(), other.EdgeCount())
	for range 2 {
		resp, err := s.Execute(session.Request{Query: joinQuery})
		if err == nil {
			t.Fatalf("a worker over another graph returned %d rows", resp.Count)
		}
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not say %q", err, want)
		}
	}
}

// TestCachedPlanPinsNoJob: the plan a job leaves in the worker's cache holds
// nothing of the job - its environment, the index bound to it - so the
// environment is garbage once the job is over, while the plan stays cached
// for the next.
func TestCachedPlanPinsNoJob(t *testing.T) {
	g := tinyGraph()
	st := stats.Collect(g)
	w := NewWorkerWith("w0", session.NewGraphData(g), WorkerOptions{Metrics: obs.NewRegistry()})
	prep, err := core.PrepareWith(st, joinQuery, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(statsMsg{ID: 1, Stats: st})
	if err != nil {
		t.Fatal(err)
	}
	snap := w.receiveStats(payload)
	spec := &jobSpec{JobID: 1, Query: joinQuery, Snapshot: 1, Workers: 4, Owner: []int{0, 0, 0, 0},
		Procs: []procSpec{{Node: "w0"}}, Fingerprint: prep.Fingerprint()}
	// attempt runs the job as executeJob does, and returns its environment.
	attempt := func(job uint64) weak.Pointer[dataflow.Env] {
		rt := w.runtime(jobKey{job: job}, &sender{})
		defer w.dropRuntime(rt)
		pt, err := w.transport(spec, rt)
		if err != nil {
			t.Fatal(err)
		}
		run, err := w.bindJob(spec, snap, pt, trace.NewCollector())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := run.prep.Execute(run.g, run.cfg); err != nil {
			t.Fatal(err)
		}
		return weak.Make(run.env)
	}
	env := attempt(1)
	runtime.GC()
	if env.Value() != nil {
		t.Fatal("a finished job's environment is still reachable: the cached plan holds it")
	}
	attempt(2)
	if n := w.plans.Len(); n != 1 {
		t.Fatalf("%d plans cached, want the job's one", n)
	}
	if built, reused := plans(w); built != 1 || reused != 1 {
		t.Fatalf("%d plans built and %d reused, want the second job to reuse the first's", built, reused)
	}
}
