package cluster_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"reflect"
	"regexp"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gradoop/internal/benchkit"
	"gradoop/internal/cluster"
	"gradoop/internal/dataflow"
	"gradoop/internal/epgm"
	"gradoop/internal/ldbc"
	"gradoop/internal/leakcheck"
	"gradoop/internal/session"
)

// triangle closes a cycle: its last join filters its right input by the key
// set of its left one, all-gathered.
const triangle = `MATCH (p1:Person)-[:knows]->(p2:Person), (p2)-[:knows]->(p3:Person), (p1)-[:knows]->(p3) RETURN *`

// twoHop is a join whose shuffles cross the workers' sockets.
const twoHop = `MATCH (p1:Person)-[:knows]->(p2:Person), (p2)-[:knows]->(p3:Person) RETURN *`

// testGraph builds the shared LDBC fixture.
func testGraph(t *testing.T) (*session.GraphData, *ldbc.Dataset) {
	t.Helper()
	env := dataflow.NewEnv(dataflow.DefaultConfig(4))
	d := ldbc.Generate(env, ldbc.Config{ScaleFactor: 0.02, Seed: 4})
	return session.NewGraphData(d.Graph), d
}

// countingListener is a worker's listener that counts the connections it
// accepted.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return conn, err
}

// startNodes launches an in-process worker per node name on a loopback
// listener, and returns the workers, their addresses and their listeners.
func startNodes(t *testing.T, data *session.GraphData, nodes ...string) ([]*cluster.Worker, []string, []*countingListener) {
	t.Helper()
	workers := make([]*cluster.Worker, len(nodes))
	addrs := make([]string, len(nodes))
	lns := make([]*countingListener, len(nodes))
	for i, node := range nodes {
		w := cluster.NewWorkerWith(node, data, cluster.WorkerOptions{})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = &countingListener{Listener: ln}
		go w.Serve(lns[i])
		t.Cleanup(w.Close)
		workers[i] = w
		addrs[i] = ln.Addr().String()
	}
	return workers, addrs, lns
}

// nodeNames is w0 to w(n-1).
func nodeNames(n int) []string {
	nodes := make([]string, n)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("w%d", i)
	}
	return nodes
}

// startWorkers launches n in-process workers, w0 to w(n-1).
func startWorkers(t *testing.T, data *session.GraphData, n int) ([]*cluster.Worker, []string) {
	t.Helper()
	workers, addrs, _ := startNodes(t, data, nodeNames(n)...)
	return workers, addrs
}

// proxy listens in front of the worker at target and forwards every
// connection to it: the coordinator's control connection and its peers' links,
// since the proxy's address is the one the roster gives them. Every frame the
// worker sends passes through tap, which may read and change its payload;
// what the other side sends is copied as it comes, and a close on either side
// closes both. stop closes the proxy and waits for its goroutines.
func proxy(t *testing.T, target string, tap func(typ byte, payload []byte)) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		conns   = map[net.Conn]struct{}{}
		stopped bool
	)
	track := func(cs ...net.Conn) bool {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range cs {
			conns[c] = struct{}{}
		}
		return !stopped
	}
	pipe := func(a, b net.Conn, run func()) {
		defer wg.Done()
		run()
		a.Close()
		b.Close()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			client, err := ln.Accept()
			if err != nil {
				return
			}
			server, err := net.Dial("tcp", target)
			if err != nil {
				client.Close()
				continue
			}
			if !track(client, server) {
				client.Close()
				server.Close()
				continue
			}
			wg.Add(2)
			go pipe(client, server, func() { io.Copy(server, client) })
			go pipe(client, server, func() { copyFrames(client, server, tap) })
		}
	}()
	var once sync.Once
	stop = func() {
		once.Do(func() {
			ln.Close()
			mu.Lock()
			stopped = true
			for c := range conns {
				c.Close()
			}
			mu.Unlock()
			wg.Wait()
		})
	}
	t.Cleanup(stop)
	return ln.Addr().String(), stop
}

// copyFrames copies the frames src sends to dst, each through tap, until
// either side fails.
func copyFrames(dst io.Writer, src io.Reader, tap func(typ byte, payload []byte)) {
	br := bufio.NewReader(src)
	for {
		var hdr [4]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		frame := make([]byte, binary.BigEndian.Uint32(hdr[:]))
		if _, err := io.ReadFull(br, frame); err != nil {
			return
		}
		if len(frame) > 0 {
			tap(frame[0], frame[1:])
		}
		if _, err := dst.Write(append(hdr[:], frame...)); err != nil {
			return
		}
	}
}

// TestClusterBitIdentity: a job across 1, 2 and 4 worker processes reports
// what ran it - the roster, one attempt, no recovery, a record per stage.
// That its rows are the single-process engine's, byte for byte and in order,
// and its merged charges the single-process charges (each worker charges only
// its owned partitions), is internal/conformance's cluster modes. Five jobs
// later each worker has accepted n connections in all: the coordinator's, and
// one link from each peer, which every job shares (DESIGN decision 39).
func TestClusterBitIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns TCP worker meshes")
	}
	data, d := testGraph(t)
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			_, addrs, lns := startNodes(t, data, nodeNames(n)...)
			coord, err := cluster.NewCoordinator(addrs, cluster.Options{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			s := session.New(d.Graph, session.Options{Workers: 4, NoResultCache: true, Remote: coord})
			for range 5 {
				resp, err := s.Execute(session.Request{Query: twoHop})
				if err != nil {
					t.Fatal(err)
				}
				if rep := resp.Cluster; rep == nil || rep.Workers != n || rep.Attempts != 1 || rep.Recovered || len(rep.Stages) == 0 {
					t.Fatalf("report %+v, want workers=%d, one attempt and a record per stage", rep, n)
				}
			}
			for i, ln := range lns {
				if got := ln.accepted.Load(); got != int64(n) {
					t.Errorf("worker %d accepted %d connections over five jobs, want %d: one control connection and %d peer links", i, got, n, n-1)
				}
			}
		})
	}
}

// TestDuplicateNodeIsRefused: two workers that report the same node name
// cannot share a roster - the partitioner would place every partition of the
// name on the first, and their peers could not tell their links apart - so
// the coordinator refuses them and names both addresses.
func TestDuplicateNodeIsRefused(t *testing.T) {
	data, _ := testGraph(t)
	_, addrs, _ := startNodes(t, data, "w0", "twin", "twin")
	coord, err := cluster.NewCoordinator(addrs, cluster.Options{Workers: 4})
	if err == nil {
		coord.Close()
		t.Fatal("a roster with two workers of one node name was accepted")
	}
	if msg := err.Error(); !strings.Contains(msg, addrs[1]) || !strings.Contains(msg, addrs[2]) || !strings.Contains(msg, `"twin"`) {
		t.Fatalf("the refusal %q does not name both addresses and the node", msg)
	}
}

// TestSIPOnCluster: on two TCP workers the join that closes a cycle - Q5's
// triangle, Q6's four-cycle, and at the medium first name Q2's join over a
// variable-length path, which takes an end set - all-gathers its left input's
// key set once, in one Broadcast stage of its own, whose bytes cross the
// sockets; Q3's, which runs its right input first, all-gathers its four sets
// so, and two of them are tested in the scans of their targets' input leaves.
// Q2's end set is transferred back across the walk too, in one Broadcast stage
// more of the closing join's, each process walking from its own partitions'
// rows, and the Post leaf's scan tests the transfer. Those are the job's only
// Broadcast stages - a join that reads a leaf in place runs no collective -
// and the rows are the ones a single process finds, which filters the same
// way.
func TestSIPOnCluster(t *testing.T) {
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
	local := session.New(d.Graph, session.Options{Workers: 4, NoResultCache: true})
	defer local.Close()
	remote := session.New(d.Graph, session.Options{Workers: 4, NoResultCache: true, Remote: coord})
	defer remote.Close()
	_, medium, _ := d.FirstNamesBySelectivity()
	params := map[string]epgm.PropertyValue{"firstName": epgm.PVString(medium)}
	sip := regexp.MustCompile(`sip (left|right|leaf)\([a-z0-9_,]+\) n=`)
	for _, tc := range []struct {
		q benchkit.QueryID
		// The closing join's key sets: Q3's runs its right input first and
		// hands on its leaf's keys and three sets of the right input's.
		sets int
		// The sets tested in scans, not at their target's pairs: Q3's leaf
		// set, in the hasCreator scan under the join on post, and right(comment),
		// in both scans under the join on comment.
		scanned int
		// The end sets transferred across a walk, each tested in the scan of
		// the expansion's input leaf: Q2's, to the posts.
		transfers int
	}{{benchkit.Q5, 1, 0, 0}, {benchkit.Q6, 1, 0, 0}, {benchkit.Q2, 1, 0, 1}, {benchkit.Q3, 4, 2, 0}} {
		q := tc.q
		req := session.Request{Query: q.Text(), Params: params, Trace: true}
		want, err := local.Execute(req)
		if err != nil {
			t.Fatal(err)
		}
		plan := want.Result.AnalyzedPlan()
		if len(sip.FindAllString(plan, -1)) != tc.sets || strings.Count(plan, "sip dropped=") != tc.sets-tc.scanned ||
			strings.Count(plan, "sip transfer(") != tc.transfers || strings.Contains(plan, "sip scanned=") != (tc.scanned+tc.transfers > 0) {
			t.Fatalf("%s: in one process, not one join handing %d targets a key set each, %d tested in scans, and %d transfers:\n%s",
				q, tc.sets, tc.scanned, tc.transfers, plan)
		}
		// The closing join, as a stage report names it: its plan line up to
		// the estimate.
		var closing string
		for _, line := range strings.Split(plan, "\n") {
			if sip.MatchString(line) {
				closing, _, _ = strings.Cut(strings.TrimSpace(line), "  ~")
			}
		}
		req.Trace = false
		got, err := remote.Execute(req)
		if err != nil {
			t.Fatal(err)
		}
		if got.Count != want.Count || !reflect.DeepEqual(got.Result.Rows(), want.Result.Rows()) {
			t.Fatalf("%s: %d rows on the cluster, %d in one process", q, got.Count, want.Count)
		}
		// Each key set and each transfer is a Broadcast stage of the closing
		// join's, and they are the only ones it adds to the job.
		var sets, broadcasts int
		for _, st := range got.Cluster.Stages {
			if st.Kind != "Broadcast" {
				continue
			}
			broadcasts++
			if st.Op == closing {
				if sets++; st.WireBytes == 0 {
					t.Fatalf("%s: the key set's stage %d put nothing on the wire", q, st.Stage)
				}
			}
		}
		if want := tc.sets + tc.transfers; sets != want || broadcasts != want || got.Cluster.Attempts != 1 {
			t.Fatalf("%s: %d Broadcast stages, %d of %s, in %d attempts; want the %d key sets and transfers, in one",
				q, broadcasts, sets, closing, got.Cluster.Attempts, want)
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
	common, _, rare := d.FirstNamesBySelectivity()
	_, addrs := startWorkers(t, data, 2)
	coord, err := cluster.NewCoordinator(addrs, cluster.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	s := session.New(d.Graph, session.Options{Workers: 4, Remote: coord})
	for _, q := range []struct {
		name, query string
		firstName   string
		kind        string // the stage kind the query must have put bytes on the wire in,
		stages      int    // in at least this many stages
	}{
		{"two-hop join", `MATCH (p1:Person)-[:knows]->(p2:Person), (p2)-[:knows]->(p3:Person) RETURN *`, common, "Shuffle", 1},
		// A selective join of two paths that meet at q: the one from a rare
		// name's persons and every person's knows edges, which are shuffled
		// to it.
		{"selective join", `MATCH (p:Person)-[:knows]->(q:Person)-[:knows]->(r:Person) WHERE p.firstName = $firstName RETURN *`, rare, "Shuffle", 2},
		// The join that closes a triangle all-gathers its left input's keys.
		{"triangle", triangle, common, "Broadcast", 1},
	} {
		resp, err := s.Execute(session.Request{Query: q.query, Params: map[string]epgm.PropertyValue{"firstName": epgm.PVString(q.firstName)}})
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

// TestClusterRecovery kills the middle worker of three at each collective of a
// two-hop join in turn, of a triangle, whose closing join's key set is
// all-gathered in one of them, of Q3 and of Q2, whose end set and the set
// transferred back across its walk are all-gathered in two: at every
// collective of a first job, of a second that a clean job went before and of
// a third that two did, and at a fourth job's first. A crash point is named
// by the job it falls in and by the collective's stage in the clean run -
// its kind and its operator, the n-th of that kind the operator runs in the
// job - so that a change that removes a collective removes its points and
// renames no other. See recoverFrom for what each crash point must give.
func TestClusterRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns TCP worker meshes")
	}
	data, d := testGraph(t)
	// Q3's closing join hands its expansion a seed set, and Q2's end set is
	// transferred across the walk in a collective of its own.
	_, medium, _ := d.FirstNamesBySelectivity()
	q3 := strings.ReplaceAll(benchkit.Q3.Text(), "$firstName", "'"+medium+"'")
	q2 := strings.ReplaceAll(benchkit.Q2.Text(), "$firstName", "'"+medium+"'")
	for _, job := range []struct{ name, query string }{{"two-hop", twoHop}, {"triangle", triangle}, {"q3", q3}, {"q2", q2}} {
		want, err := session.New(d.Graph, session.Options{Workers: 4}).Execute(session.Request{Query: job.query})
		if err != nil {
			t.Fatal(err)
		}
		_, addrs := startWorkers(t, data, 3)
		coord, err := cluster.NewCoordinator(addrs, cluster.Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		clean, err := session.New(d.Graph, session.Options{Workers: 4, Remote: coord}).Execute(session.Request{Query: job.query})
		coord.Close()
		if err != nil {
			t.Fatal(err)
		}
		points := crashPoints(clean.Cluster.Stages)
		if len(points) == 0 {
			t.Fatalf("the %s job ran no collective", job.query)
		}
		K := len(points)
		for k := 1; k <= 3*K+1; k++ {
			name := fmt.Sprintf("%s/job%d/%s", job.name, 1+(k-1)/K, points[(k-1)%K])
			t.Run(name, func(t *testing.T) {
				recoverFrom(t, data, d.Graph, job.query, want, k, K)
			})
		}
	}
}

// crashPoints names the collectives of a clean job's stages, in the order
// they run: each as its stage's kind and its operator's plan line up to its
// first argument, the n-th collective of that kind of that operator in the
// job - "Shuffle#2:JoinEmbeddings(on=p2)".
func crashPoints(stages []session.ClusterStage) []string {
	var points []string
	seen := map[string]int{}
	for _, st := range stages {
		// A superstep's emptiness test is a collective too, in the stage
		// before it, which is not a shuffle.
		if !st.Shuffle && st.WireBytes == 0 {
			continue
		}
		op, _, cut := strings.Cut(st.Op, ", ")
		if cut && !strings.HasSuffix(op, ")") {
			op += ")"
		}
		key := st.Kind + ":" + op
		seen[key]++
		points = append(points, fmt.Sprintf("%s#%d:%s", st.Kind, seen[key], op))
	}
	return points
}

// recoveryDeadline is the timeout of each job recoverFrom runs. A job that has
// not answered by then hangs: the test logs every goroutine and fails on the
// job and the crash point, instead of running into the package's timeout.
const recoveryDeadline = time.Minute

// recoverFrom arms the middle worker of three to crash at its k-th collective,
// of jobs of K each. The jobs before the one it falls in run clean on all
// three workers. The job it falls in is re-executed on the two survivors, with
// the single-process rows, flagged as recovered, in two attempts: no survivor
// was accused. Every done report that fails on a lost peer names the crashed
// worker and no other. The next job is a clean first attempt on the
// survivors' link between them, which it does not dial again. Closed, the
// cluster leaves no goroutine behind.
func recoverFrom(t *testing.T, data *session.GraphData, g *epgm.LogicalGraph, query string, want *session.Response, k, K int) {
	leakcheck.Check(t)
	workers, direct, lns := startNodes(t, data, nodeNames(3)...)
	// Every worker is reached through a proxy that reads its done reports. A
	// loss can only be the first attempt's, in which w1 is roster index 1.
	addrs := make([]string, len(direct))
	stops := make([]func(), len(direct))
	for i, a := range direct {
		addrs[i], stops[i] = proxy(t, a, func(typ byte, payload []byte) {
			if typ != cluster.FrameJobDone {
				return
			}
			r, err := cluster.DoneReport(payload)
			switch {
			case err != nil:
				t.Errorf("w%d's done report does not decode: %v", i, err)
			case strings.Contains(r.Error, cluster.ErrPeerLost.Error()) && (r.Attempt != 0 || !slices.Equal(r.Lost, []int{1})):
				t.Errorf("w%d's done report of attempt %d fails on a lost peer and names roster indices %v, want [1], the crashed w1", i, r.Attempt, r.Lost)
			}
		})
	}
	coord, err := cluster.NewCoordinator(addrs, cluster.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	workers[1].SetFailAfterExchanges(int64(k))
	s := session.New(g, session.Options{Workers: 4, NoResultCache: true, Remote: coord})
	run := func(job string) *session.ClusterReport {
		t.Helper()
		resp, err := s.Execute(session.Request{Query: query, Timeout: recoveryDeadline})
		if session.KindOf(err) == session.KindTimeout {
			var dump bytes.Buffer
			pprof.Lookup("goroutine").WriteTo(&dump, 2)
			t.Log(dump.String())
			t.Fatalf("%s, crash at collective %d of %d: no answer in %v (goroutines above): %v", job, k, K, recoveryDeadline, err)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resp.Result.Rows(), want.Result.Rows()) || resp.Count != want.Count {
			t.Fatalf("rows differ from single-process rows (%d vs %d)", resp.Count, want.Count)
		}
		return resp.Cluster
	}
	for j := 0; j < (k-1)/K; j++ {
		if rep := run(fmt.Sprintf("job %d, before the crash", j+1)); rep.Recovered || rep.Workers != 3 {
			t.Fatalf("a crash past job %d's last collective fell in it: %+v", j+1, rep)
		}
	}
	if rep := run("the job the crash falls in"); !rep.Recovered || rep.Attempts != 2 || rep.Workers != 2 {
		t.Fatalf("report %+v, want the job recovered in two attempts on the 2 survivors", rep)
	}
	if n := coord.LiveWorkers(); n != 2 {
		t.Fatalf("%d live workers after the crash, want the 2 survivors", n)
	}
	dialled := lns[0].accepted.Load() + lns[2].accepted.Load()
	if rep := run("the job after the recovery"); rep.Recovered || rep.Attempts != 1 || rep.Workers != 2 {
		t.Fatalf("the job after the recovery: %+v, want a clean first attempt on the survivors", rep)
	}
	if got := lns[0].accepted.Load() + lns[2].accepted.Load(); got != dialled {
		t.Fatalf("the survivors accepted %d connections for the job after the recovery, want none", got-dialled)
	}
	coord.Close()
	for _, w := range workers {
		w.Close()
		w.Wait()
	}
	for _, stop := range stops {
		stop()
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
