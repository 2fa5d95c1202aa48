package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"gradoop/internal/benchkit"
	"gradoop/internal/dataflow"
	"gradoop/internal/embedding"
	"gradoop/internal/epgm"
	"gradoop/internal/ldbc"
	"gradoop/internal/obs"
	"gradoop/internal/session"
)

// wideGraph is g with the shapes of the differential harness's wide fixture
// added: four Huge vertices of a 200 KiB string each - rows longer than a
// receive chunk and than the sender's write buffer - and 32 W vertices whose
// text grows fourfold from one partition to the next, so that the frames a
// worker receives are of many sizes, many of them over a chunk.
func wideGraph(g *epgm.LogicalGraph) *epgm.LogicalGraph {
	vs, es := g.Vertices.Collect(), g.Edges.Collect()
	const vbase, ebase = 1 << 40, 2 << 40
	vertex := func(i int, label string, text string) {
		vs = append(vs, epgm.Vertex{ID: epgm.ID(vbase + i), Label: label,
			Properties: epgm.Properties{}.Set("n", epgm.PVInt(int64(i))).Set("text", epgm.PVString(text))})
	}
	edge := func(label string, s, t int) {
		es = append(es, epgm.Edge{ID: epgm.ID(ebase + len(es)), Label: label, Source: epgm.ID(vbase + s), Target: epgm.ID(vbase + t)})
	}
	for i := 1; i <= 4; i++ {
		vertex(i, "Huge", strings.Repeat(fmt.Sprintf("%c%07d", 'a'+i, i), 200<<10/8))
	}
	const w = 32
	for i := 0; i < w; i++ {
		vertex(100+i, "W", strings.Repeat(fmt.Sprintf("w%07d", i), (2<<10<<(2*(4*i/w)))/8))
		edge("r", 100+i, 100+(5*i+1)%w)
	}
	for _, st := range [][2]int{{1, 100}, {2, 109}, {3, 118}, {4, 127}, {1, 131}, {3, 104}} {
		edge("has", st[0], st[1])
	}
	return epgm.GraphFromSlices(dataflow.NewEnv(dataflow.DefaultConfig(4)), "recycled", vs, es)
}

// TestRecycledReceiveMemoryIsDead: every worker receives into memory an
// earlier attempt gave back, and that memory is scribbled over when it is
// given back (scribbleSpare, on in every test of the package). On one
// two-worker cluster Q1-Q6 and the wide shapes run twice each, then an attempt
// that times out, then one whose worker crashes mid-shuffle and its retry on
// the survivor: every answer is the plain session's at the same P, row for
// row, and closing the cluster leaves no goroutine behind. A row read from a
// frame body after its attempt gave it back reads 0xee.
func TestRecycledReceiveMemoryIsDead(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns TCP worker meshes")
	}
	if !scribbleSpare {
		t.Fatal("scribbleSpare is off: export_test.go's init sets it")
	}
	goroutines := runtime.NumGoroutine()
	d := ldbc.Generate(dataflow.NewEnv(dataflow.DefaultConfig(4)), ldbc.Config{ScaleFactor: 0.02, Seed: 4})
	g := wideGraph(d.Graph)
	common, _, _ := d.FirstNamesBySelectivity()
	var reqs []session.Request
	for _, q := range benchkit.AllQueries {
		r := session.Request{Query: q.Text()}
		if q.Operational() {
			r.Params = map[string]epgm.PropertyValue{"firstName": epgm.PVString(common)}
		}
		reqs = append(reqs, r)
	}
	for _, q := range []string{
		`MATCH (h:Huge)-[:has]->(w:W) RETURN h.n, h.text, w.n`,
		`MATCH (a:W)-[:r]->(b:W) RETURN a.n, a.text, b.text`,
		`MATCH (a:W)-[:r]->(b:W)-[:r]->(c:W) RETURN a.n, b.text, c.n`,
	} {
		reqs = append(reqs, session.Request{Query: q})
	}

	plain := session.New(g, session.Options{Workers: 4, NoResultCache: true})
	defer plain.Close()
	data := session.NewGraphData(g)
	var ws []*Worker
	var addrs []string
	for i := range 2 {
		w := NewWorkerWith(fmt.Sprintf("w%d", i), data, WorkerOptions{})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go w.Serve(ln)
		ws, addrs = append(ws, w), append(addrs, ln.Addr().String())
	}
	coord, err := NewCoordinator(addrs, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	s := session.New(g, session.Options{Workers: 4, NoResultCache: true, Remote: coord})
	same := func(r session.Request, attempts int) {
		t.Helper()
		want, err := plain.Execute(r)
		if err != nil {
			t.Fatalf("%s: %v", r.Query, err)
		}
		got, err := s.Execute(r)
		if err != nil {
			t.Fatalf("%s on the cluster: %v", r.Query, err)
		}
		if got.Cluster.Attempts != attempts {
			t.Fatalf("%s: %d attempts, want %d", r.Query, got.Cluster.Attempts, attempts)
		}
		if !reflect.DeepEqual(got.Result.Rows(), want.Result.Rows()) {
			t.Fatalf("%s: the cluster's %d rows are not the session's %d", r.Query, got.Count, want.Count)
		}
	}
	for range 2 {
		for _, r := range reqs {
			same(r, 1)
		}
	}
	kept := 0
	for _, w := range ws {
		w.spareMu.Lock()
		kept += w.spareBytes
		w.spareMu.Unlock()
	}
	if kept == 0 {
		t.Fatal("the workers keep no receive memory after twenty jobs")
	}

	wide := reqs[len(reqs)-1]
	timedOut := wide
	timedOut.Timeout = time.Nanosecond
	if _, err := s.Execute(timedOut); err == nil {
		t.Fatal("a job of a 1 ns timeout succeeded")
	}
	if n := coord.LiveWorkers(); n != 2 {
		t.Fatalf("%d live workers after a job timed out, want 2", n)
	}
	same(wide, 1)

	ws[1].SetFailAfterExchanges(2)
	same(session.Request{Query: joinQuery}, 2)
	same(wide, 1)
	same(reqs[3], 1)

	s.Close()
	coord.Close()
	for _, w := range ws {
		w.Close()
		w.Wait()
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the cluster closed, %d before it started", runtime.NumGoroutine(), goroutines)
		}
	}
}

// recvBytes reads a worker registry's gradoop_worker_recv_bytes_total of one
// source, and gradoop_worker_recv_spare_bytes.
func recvBytes(r *obs.Registry, from string) (taken, kept float64) {
	for _, f := range r.Snapshot().Families {
		for _, s := range f.Samples {
			switch {
			case f.Name == "gradoop_worker_recv_bytes_total" && len(s.Labels) == 2 && s.Labels[1] == from:
				taken = s.Value
			case f.Name == "gradoop_worker_recv_spare_bytes":
				kept = s.Value
			}
		}
	}
	return taken, kept
}

// TestWarmWorkerReceivesFromSpare: the second job of a query on a warm worker
// takes all its receive memory from the spare list - the heap series stands
// still and the spare series grows by what the first job took from the heap -
// and the federated /metrics shows both series per worker.
func TestWarmWorkerReceivesFromSpare(t *testing.T) {
	s, coord, ws := snapshotCluster(t, tinyGraph(), 2)
	// released waits until every worker's attempt has given its arena back
	// and counted what it took from: runJob sends its done report before it
	// drops the attempt.
	released := func(from string) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			idle := true
			for _, w := range ws {
				taken, _ := recvBytes(w.metrics, from)
				idle = idle && taken > 0
			}
			if idle {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("no receive arena counted from the %s 5 s after its job ended", from)
			}
		}
	}
	if _, err := s.Execute(session.Request{Query: joinQuery}); err != nil {
		t.Fatal(err)
	}
	released("heap")
	heap := make([]float64, len(ws))
	for i, w := range ws {
		var kept float64
		heap[i], kept = recvBytes(w.metrics, "heap")
		if spare, _ := recvBytes(w.metrics, "spare"); heap[i] == 0 || spare != 0 || kept != heap[i] {
			t.Fatalf("worker %s after its first job: %v bytes from the heap, %v from the spare list, %v kept; want all from the heap, and all kept", w.node, heap[i], spare, kept)
		}
	}
	if _, err := s.Execute(session.Request{Query: joinQuery}); err != nil {
		t.Fatal(err)
	}
	released("spare")
	for i, w := range ws {
		again, _ := recvBytes(w.metrics, "heap")
		spare, kept := recvBytes(w.metrics, "spare")
		if again != heap[i] || spare != heap[i] || kept != heap[i] {
			t.Fatalf("worker %s after the same job again: %v bytes from the heap (%v before), %v from the spare list, %v kept; want the heap unchanged and the first job's bytes from the spare list", w.node, again, heap[i], spare, kept)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		var sb strings.Builder
		var feds []obs.FederatedSnapshot
		for _, m := range coord.WorkerMetrics() {
			feds = append(feds, obs.FederatedSnapshot{Label: m.Node, Snap: m.Snap})
		}
		obs.WriteFederated(&sb, "gradoop_cluster_", "worker", feds)
		exp := sb.String()
		if strings.Contains(exp, `gradoop_cluster_worker_recv_bytes_total{worker="w1",from="spare"}`) &&
			strings.Contains(exp, `gradoop_cluster_worker_recv_spare_bytes{worker="w1"}`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the federated exposition lacks the receive series:\n%s", exp)
		}
	}
}

// TestInFlightFrameHoldsTheArena: a worker attempt's arena goes back to the
// worker only once the attempt is released and no frame is being read into
// it. A frame whose body is still arriving when the attempt ends keeps the
// arena until it lands; a frame that begins after is a heap allocation the
// worker never keeps; and what is given back is scribbled over.
func TestInFlightFrameHoldsTheArena(t *testing.T) {
	w := NewWorkerWith("w0", nil, WorkerOptions{})
	rt := newJobRuntime(w, jobKey{job: 1})
	client, server := io.Pipe()
	br := bufio.NewReader(client)
	frame := frameBytes(frameData, headBytes(&dataFrame{JobID: 1, Seq: 1, Kind: kindExchange}), []byte("landed"))
	_, first, err := readFrameFrom(t, server, br, rt, frame)
	if err != nil {
		t.Fatal(err)
	}
	rt.readEnded()

	type read struct {
		body []byte
		err  error
	}
	arrived := make(chan read, 1)
	go func() {
		_, body, err := readFrame(br, rt)
		arrived <- read{body, err}
	}()
	go server.Write(frame[:len(frame)-3])
	for {
		rt.mu.Lock()
		reading := rt.reading
		rt.mu.Unlock()
		if reading == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	w.dropRuntime(rt)
	if w.spareBytes != 0 {
		t.Fatalf("the arena went back with a frame still being read into it (%d bytes kept)", w.spareBytes)
	}
	go server.Write(frame[len(frame)-3:])
	r := <-arrived
	if r.err != nil {
		t.Fatal(r.err)
	}
	if w.spareBytes != 0 {
		t.Fatal("the arena went back before the frame's reader was done with it")
	}
	rt.readEnded()
	if w.spareBytes != recvChunk {
		t.Fatalf("the worker keeps %d bytes after the attempt's last read ended, want its chunk of %d", w.spareBytes, recvChunk)
	}
	for _, b := range [][]byte{first, r.body} {
		if strings.Trim(string(b), "\xee") != "" {
			t.Fatalf("a body given back reads %q: it was not scribbled over", b)
		}
	}

	_, late, err := readFrameFrom(t, server, br, rt, frame)
	if err != nil {
		t.Fatal(err)
	}
	rt.readEnded()
	if spare := w.spare[0]; overlaps(late, spare) || w.spareBytes != recvChunk {
		t.Fatal("a frame read after its attempt was released was carved from the arena")
	}
}

// readFrameFrom writes frame into the pipe and reads it back through br into
// into.
func readFrameFrom(t *testing.T, server *io.PipeWriter, br *bufio.Reader, into *jobRuntime, frame []byte) (byte, []byte, error) {
	t.Helper()
	go server.Write(frame)
	return readFrame(br, into)
}

// overlaps reports whether two byte slices share memory, up to their
// capacities.
func overlaps(a, b []byte) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	alo := uintptr(unsafe.Pointer(unsafe.SliceData(a)))
	blo := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return alo < blo+uintptr(cap(b)) && blo < alo+uintptr(cap(a))
}

// repeatedRows is one partition of n copies of a row of size bytes: a bucket
// whose wire size is n times the row's, over one row's memory.
func repeatedRows(size, n int) *dataflow.Dataset[embedding.Embedding] {
	row := embedding.Embedding{}.AppendID(1).AppendProps(epgm.PVString(strings.Repeat("x", size)))
	rows := make([]embedding.Embedding, n)
	for i := range rows {
		rows[i] = row
	}
	return dataflow.FromPartitions(dataflow.NewEnv(dataflow.DefaultConfig(2)), [][]embedding.Embedding{rows, nil})
}

// TestOversizedFrameIsNeverSent: a frame of rows over maxFrame, which its
// receiver would refuse and take for a lost peer, is never queued. An
// exchange and a result of 257 MiB fail with errFrameTooLarge - not
// ErrPeerLost, so the done report blames no peer - naming the size and the
// limit, no byte of them reaches the connection, and the connection carries
// the next frame.
func TestOversizedFrameIsNeverSent(t *testing.T) {
	const rowSize = 1 << 20
	big := repeatedRows(rowSize, maxFrame/rowSize+1)
	check := func(what string, err error, rt *jobRuntime, conn net.Conn) {
		t.Helper()
		if !errors.Is(err, errFrameTooLarge) || errors.Is(err, ErrPeerLost) || !strings.Contains(err.Error(), fmt.Sprint(maxFrame)) {
			t.Fatalf("%s over the limit: %v, want errFrameTooLarge naming the limit", what, err)
		}
		if rt != nil {
			if lost, _ := rt.lossInfo(err); lost {
				t.Fatalf("%s over the limit reports a lost peer", what)
			}
		}
		conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		var b [1]byte
		if n, _ := conn.Read(b[:]); n != 0 {
			t.Fatalf("%s over the limit put bytes on the connection", what)
		}
	}

	t.Run("exchange", func(t *testing.T) {
		rt := newJobRuntime(NewWorkerWith("w0", nil, WorkerOptions{}), jobKey{job: 1})
		local, remote := net.Pipe()
		defer remote.Close()
		link := rt.addPeer(1, local)
		defer link.send.abort()
		pt := &peerTransport{rt: rt, spec: &jobSpec{JobID: 1, Workers: 2, Owner: []int{0, 1}, Procs: make([]procSpec, 2)}, wireOut: map[int64]int64{}}
		bucket, err := big.Bucket(0)
		if err != nil {
			t.Fatal(err)
		}
		_, err = pt.Exchange(1, [][]dataflow.Bucket{{{}, bucket}, nil})
		check("an exchange", err, rt, remote)
		go rt.peerSend(1, headBytes(&dataFrame{JobID: 1, Seq: 2}), nil)
		remote.SetReadDeadline(time.Now().Add(5 * time.Second))
		if typ, _, err := readFrame(bufio.NewReader(remote), nil); err != nil || typ != frameData {
			t.Fatalf("the link after a refused frame: type %d, %v", typ, err)
		}
	})
	t.Run("result", func(t *testing.T) {
		local, remote := net.Pipe()
		defer remote.Close()
		ctrl := newSender(local)
		defer ctrl.abort()
		err := shipResults(&jobSpec{JobID: 1, Workers: 2, Owner: []int{0, 1}}, big, ctrl)
		check("a result", err, nil, remote)
		go ctrl.send(framePong, nil, nil)
		remote.SetReadDeadline(time.Now().Add(5 * time.Second))
		if typ, _, err := readFrame(bufio.NewReader(remote), nil); err != nil || typ != framePong {
			t.Fatalf("the connection after a refused result: type %d, %v", typ, err)
		}
	})
}

// TestFailedMemberIsNotLost: a worker that fails an attempt on an error of
// its own - a frame over the limit, a timeout - leaves its peers, and a peer
// that needed it reports it lost, often before its own report arrives. The
// attempt waits for that report, fails with the worker's error, and blames
// and retries nobody; a member that reported nothing and is not down is still
// waited for, and one that is down is lost.
func TestFailedMemberIsNotLost(t *testing.T) {
	lostReport := &jobDone{Error: "cluster: peer lost", PeerLost: true, LostPeers: []int{0}}
	own := &jobDone{Error: "cluster: frame too large: 268435460 bytes, the limit is 268435456"}

	st := newAttemptState(jobKey{job: 1}, []int{0, 1}, []int{0, 0, 1, 1})
	st.deliverDone(1, lostReport)
	settled := make(chan error, 1)
	go func() { settled <- st.await() }()
	select {
	case <-settled:
		t.Fatal("a loss report settled the attempt before the member it names reported")
	case <-time.After(20 * time.Millisecond):
	}
	st.deliverDone(0, own)
	if err := <-settled; err != nil {
		t.Fatal(err)
	}
	if out := st.classify(); out.recoverable || len(out.accused) != 0 || out.queryErr == nil || out.queryErr.Error() != own.Error {
		t.Fatalf("outcome %+v, want the member's own error, nobody accused", out)
	}

	st = newAttemptState(jobKey{job: 2}, []int{0, 1}, []int{0, 0, 1, 1})
	st.deliverDone(1, lostReport)
	st.memberDown(0)
	if err := st.await(); err != nil {
		t.Fatal(err)
	}
	if out := st.classify(); !out.recoverable || !reflect.DeepEqual(out.accused, []int{0}) {
		t.Fatalf("outcome %+v, want member 0 lost", out)
	}
}
