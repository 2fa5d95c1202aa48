package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"log/slog"
	"net"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"gradoop/internal/core"
	"gradoop/internal/dataflow"
	"gradoop/internal/epgm"
	"gradoop/internal/ldbc"
	"gradoop/internal/session"
	"gradoop/internal/stats"
	"gradoop/internal/trace"
)

// tinyGraph is a small LDBC graph, generated over four partitions.
func tinyGraph() *epgm.LogicalGraph {
	return ldbc.Generate(dataflow.NewEnv(dataflow.DefaultConfig(4)), ldbc.Config{ScaleFactor: 0.02, Seed: 4}).Graph
}

// fakeWorker serves one control connection as a worker does, as far as the
// coordinator can tell: it answers every job frame with a clean done report
// whose result is result(spec), and every ping with a pong.
func fakeWorker(t *testing.T, result func(*jobSpec) []segment) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	t.Cleanup(func() {
		ln.Close()
		<-served
	})
	go func() {
		defer close(served)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		if _, _, err := readFrame(br, nil); err != nil {
			return
		}
		if err := writeJSONFrame(conn, frameWelcome, welcome{Magic: protoMagic, Version: protoVersion, Node: ln.Addr().String()}); err != nil {
			return
		}
		send := newSender(conn)
		defer send.abort()
		for {
			typ, payload, err := readFrame(br, nil)
			if err != nil {
				return
			}
			switch typ {
			case framePing:
				send.send(framePong, nil, nil)
			case frameJob:
				var spec jobSpec
				if err := decodeJobSpec(payload, &spec); err != nil {
					t.Error(err)
					return
				}
				done := jobDone{attemptHead: attemptHead{JobID: spec.JobID, Attempt: spec.Attempt, From: spec.Self}}
				send.send(frameJobDone, nil, doneBody(&done, result(&spec)))
			}
		}
	}()
	return ln.Addr().String()
}

// TestResultFilesAgainstTheOwnerMap: the coordinator files each member's
// result body against the owner map the attempt was launched with. A body
// that names a partition its sender does not own, names one twice or leaves
// one out takes its sender down, as a corrupt frame does, and none of its rows
// is assembled: the attempt is retried on the other member, whose partitions
// are empty. A body that files is assembled, one row a partition.
func TestResultFilesAgainstTheOwnerMap(t *testing.T) {
	g := tinyGraph()
	prep, err := core.PrepareWith(stats.Collect(g), `MATCH (p:Person) RETURN *`, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	row := bucketOf(wideRows(1))
	// filing is a body that files one row under each of parts, in order.
	filing := func(parts ...int) func(*jobSpec) []segment {
		return func(*jobSpec) []segment {
			var body []segment
			for _, p := range parts {
				head := binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(nil, uint32(p)), uint32(row.WireSize()))
				body = append(body, segment{raw: head, bucket: row})
			}
			return body
		}
	}
	empty := func(spec *jobSpec) []segment {
		blobs := make([]dataflow.Bucket, spec.Workers)
		for p := range blobs {
			blobs[p] = bucketOf(nil)
		}
		return gatherBody(spec.Owner, spec.Self, blobs)
	}
	// The range partitioner gives the first of two members partitions 0 and 1.
	for _, tc := range []struct {
		name     string
		body     func(*jobSpec) []segment
		rows     int64
		attempts int
	}{
		{"owned", filing(0, 1), 2, 1},
		{"not owned", filing(0, 1, 2), 0, 2},
		{"filed twice", filing(0, 1, 1), 0, 2},
		{"missing", filing(0), 0, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addrs := []string{fakeWorker(t, tc.body), fakeWorker(t, empty)}
			coord, err := NewCoordinator(addrs, Options{Workers: 4, Partitioner: rangePartitioner{}})
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			res, rep, err := coord.ExecuteRemote(g, prep, core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if n := res.Embeddings.Count(); n != tc.rows || rep.Attempts != tc.attempts || coord.LiveWorkers() != 3-tc.attempts {
				t.Fatalf("%d rows in %d attempts with %d members alive, want %d rows in %d", n, rep.Attempts, coord.LiveWorkers(), tc.rows, tc.attempts)
			}
		})
	}
}

// rangePartitioner assigns contiguous partition ranges in roster order, so a
// test knows which member owns which partition.
type rangePartitioner struct{}

func (rangePartitioner) Name() string { return "range" }

func (rangePartitioner) Assign(partitions int, nodes []string) []int {
	owner := make([]int, partitions)
	for p := range owner {
		owner[p] = p * len(nodes) / partitions
	}
	return owner
}

// lockedBuffer is a log the worker's goroutines write while the test reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// TestControlDropFailsItsJobsOnly: a worker serves two control connections -
// a coordinator keeps its own for the life of its process - each of which has
// started a job that now waits in a collective for a peer that never answers.
// Both jobs send to the peer on the one link the worker dialled for the first.
// Dropping one connection fails its job promptly, with "coordinator connection
// lost", and the job leaves w.jobs; the job the other connection started runs
// on, and so does the link.
func TestControlDropFailsItsJobsOnly(t *testing.T) {
	g := tinyGraph()
	data := session.NewGraphData(g)
	var log lockedBuffer
	w := NewWorkerWith("w1", data, WorkerOptions{Logger: slog.New(slog.NewTextHandler(&log, nil))})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go w.Serve(ln)
	defer w.Wait()
	defer w.Close()
	addr := ln.Addr().String()

	// The jobs' other roster member is the test: it takes every link dialled to
	// it, and answers nothing.
	peerLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer peerLn.Close()
	links := make(chan *bufio.Reader, 2)
	go func() {
		for {
			conn, err := peerLn.Accept()
			if err != nil {
				return
			}
			t.Cleanup(func() { conn.Close() })
			br := bufio.NewReader(conn)
			if _, _, err := readFrame(br, nil); err != nil {
				return
			}
			if err := writeJSONFrame(conn, frameWelcome, welcome{Magic: protoMagic, Version: protoVersion, Node: "peer"}); err != nil {
				return
			}
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			links <- br
		}
	}()
	var link *bufio.Reader

	const query = `MATCH (p1:Person)-[:knows]->(p2:Person), (p2)-[:knows]->(p3:Person) RETURN *`
	st := stats.Collect(g)
	prep, err := core.PrepareWith(st, query, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// start sends job over a control connection of its own and returns once
	// the job's first collective has sent the peer a frame.
	start := func(job uint64) net.Conn {
		ctrl, _, _, err := dialHello(addr, hello{Magic: protoMagic, Version: protoVersion, Role: roleControl})
		if err != nil {
			t.Fatal(err)
		}
		spec := jobSpec{JobID: job, Query: query, Snapshot: 1, Workers: 2, Owner: []int{0, 1},
			Procs: []procSpec{{Node: "peer", Addr: peerLn.Addr().String()}, {Node: "w1", Addr: addr}}, Self: 1, Fingerprint: prep.Fingerprint()}
		if err := writeJSONFrame(ctrl, frameStats, statsMsg{ID: 1, Stats: st}); err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(ctrl, frameJob, encodeJobSpec(&spec)); err != nil {
			t.Fatal(err)
		}
		if link == nil {
			link = <-links
		}
		for {
			typ, payload, err := readFrame(link, nil)
			if err != nil {
				t.Fatalf("job %d sent its peer no collective: %v", job, err)
			}
			var f dataFrame
			if _, err := openFrame(&f, payload); typ == frameData && err == nil && f.JobID == job {
				return ctrl
			}
		}
	}
	running := func(job uint64) *jobRuntime {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.jobs[jobKey{job: job}]
	}
	dropped, kept := start(1), start(2)
	defer kept.Close()
	dropped.Close()
	for deadline := time.Now().Add(5 * time.Second); running(1) != nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the job of a dropped control connection is still running")
		}
	}
	if !strings.Contains(log.String(), "coordinator connection lost") {
		t.Fatalf("the job did not fail with the connection's loss:\n%s", log.String())
	}
	rt := running(2)
	if rt == nil {
		t.Fatal("the job of the other control connection is gone")
	}
	if err := rt.failure(); err != nil {
		t.Fatalf("the job of the other control connection failed: %v", err)
	}
	select {
	case <-links:
		t.Fatal("the second job dialled the peer again")
	default:
	}
	w.mu.Lock()
	l := w.links["peer"]
	w.mu.Unlock()
	if l == nil {
		t.Fatal("the link went down with the job that failed")
	}
	select {
	case <-l.send.done:
		t.Fatal("the link's writer stopped with the job that failed")
	default:
	}
}

// relay relays connections to the worker at addr a frame at a time, each frame
// as edit returns it; toWorker says which way the frame goes. Its cleanup
// closes what it relays: a link a worker dialled through it lives as long as
// that worker.
func relay(t *testing.T, addr string, edit func(toWorker bool, typ byte, payload []byte) (byte, []byte)) string {
	return relayFrames(t, addr, func(toWorker bool, frame []byte) ([]byte, bool) {
		typ, payload := edit(toWorker, frame[frameHeader-1], frame[frameHeader:])
		var out bytes.Buffer
		writeFrame(&out, typ, payload)
		return out.Bytes(), false
	})
}

// relayFrames relays connections to the worker at addr a frame at a time, each
// frame - length, type and payload - as pass returns it; a pass that reports
// the frame its last closes both sides of the connection once it has written
// what it returned.
func relayFrames(t *testing.T, addr string, pass func(toWorker bool, frame []byte) (out []byte, last bool)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var relayed []net.Conn
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, c := range relayed {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	pump := func(dst, src net.Conn, toWorker bool) {
		defer wg.Done()
		defer dst.Close()
		defer src.Close()
		br := bufio.NewReader(src)
		for {
			typ, payload, err := readFrame(br, nil)
			if err != nil {
				return
			}
			frame := append(binary.BigEndian.AppendUint32(nil, uint32(1+len(payload))), typ)
			out, last := pass(toWorker, append(frame, payload...))
			if _, err := dst.Write(out); err != nil || last {
				return
			}
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			in, err := ln.Accept()
			if err != nil {
				return
			}
			out, err := net.Dial("tcp", addr)
			if err != nil {
				in.Close()
				return
			}
			mu.Lock()
			relayed = append(relayed, in, out)
			mu.Unlock()
			wg.Add(2)
			go pump(out, in, true)
			go pump(in, out, false)
		}
	}()
	return ln.Addr().String()
}

// corruptingProxy relays connections to the worker at addr, with the body of
// every job frame cut to its first byte.
func corruptingProxy(t *testing.T, addr string) string {
	return relay(t, addr, func(toWorker bool, typ byte, payload []byte) (byte, []byte) {
		if toWorker && typ == frameJob {
			payload = payload[:1]
		}
		return typ, payload
	})
}

// retypingProxy relays connections to the worker at addr, with every done
// frame the worker sends re-typed as a ping, which no coordinator reads.
func retypingProxy(t *testing.T, addr string) string {
	return relay(t, addr, func(toWorker bool, typ byte, payload []byte) (byte, []byte) {
		if !toWorker && typ == frameJobDone {
			typ = framePing
		}
		return typ, payload
	})
}

// TestUndecodableControlFrameDropsTheConnection: a control frame the worker
// cannot decode, or one of a type its read loop does not take, closes its
// control connection - no done report would ever come, and the pongs would
// keep the member alive. A frame the coordinator cannot decode or does not
// take from a worker is that member's loss. Either way the coordinator sees a
// lost member: it recovers on the survivors, and with none left it returns an
// error. It never waits.
func TestUndecodableControlFrameDropsTheConnection(t *testing.T) {
	g := tinyGraph()
	data := session.NewGraphData(g)
	_, addr := serveWorker(t, "w0", data)

	for _, tc := range []struct {
		name    string
		typ     byte
		payload []byte
	}{
		{"undecodable job", frameJob, []byte("{")},
		{"job with a trailing byte", frameJob, append(encodeJobSpec(&jobSpec{JobID: 1}), 0)},
		{"undecodable abort", frameAbort, []byte{0, 0, 0}},
		{"unread type", framePong, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctrl := dialControl(t, addr)
			ctrl.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if err := writeFrame(ctrl.conn, tc.typ, tc.payload); err != nil {
				t.Fatal(err)
			}
			for {
				if _, _, err := readFrame(ctrl.br, nil); err != nil {
					if errors.Is(err, os.ErrDeadlineExceeded) {
						t.Fatal("the worker kept the control connection open")
					}
					break
				}
			}
		})
	}

	prep, err := core.PrepareWith(stats.Collect(g), joinQuery, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, survivor := serveWorker(t, "w1", data)
	for _, tc := range []struct {
		name  string
		addrs []string
	}{
		{"survivor", []string{corruptingProxy(t, addr), survivor}},
		{"none left", []string{corruptingProxy(t, addr)}},
		{"unread type, survivor", []string{retypingProxy(t, addr), survivor}},
		{"unread type, none left", []string{retypingProxy(t, addr)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coord, err := NewCoordinator(tc.addrs, Options{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			type outcome struct {
				rep *session.ClusterReport
				err error
			}
			ch := make(chan outcome, 1)
			go func() {
				_, rep, err := coord.ExecuteRemote(g, prep, core.Config{})
				ch <- outcome{rep, err}
			}()
			var o outcome
			select {
			case o = <-ch:
			case <-time.After(10 * time.Second):
				t.Fatal("the job hangs")
			}
			switch {
			case len(tc.addrs) > 1 && (o.err != nil || !o.rep.Recovered):
				t.Fatalf("want a recovery on the survivor, got %+v, %v", o.rep, o.err)
			case len(tc.addrs) == 1 && o.err == nil:
				t.Fatal("want an error with no worker left")
			case coord.LiveWorkers() != len(tc.addrs)-1:
				t.Fatalf("%d of %d members alive, want one lost", coord.LiveWorkers(), len(tc.addrs))
			}
		})
	}
}

// TestEveryFrameTypeCrosses: every frame type the protocol declares is sent by
// the code that speaks it, across a socket. Two workers, each behind a relay
// that records the type of every frame it passes, run a traced job (hello,
// welcome, stats, job, data, done) and a job whose context is cancelled
// (abort), refuse a hello from another build (reject) and answer the
// heartbeat (ping, pong). A type no code sends is dead protocol; one its
// receiver does not take costs a member.
func TestEveryFrameTypeCrosses(t *testing.T) {
	g := tinyGraph()
	data := session.NewGraphData(g)
	var mu sync.Mutex
	var crossed [256]bool
	var held chan struct{} // while set, a job frame waits for it to close
	record := func(_ bool, typ byte, payload []byte) (byte, []byte) {
		mu.Lock()
		crossed[typ] = true
		gate := held
		mu.Unlock()
		if typ == frameJob && gate != nil {
			<-gate
		}
		return typ, payload
	}
	var addrs []string
	for _, node := range []string{"w0", "w1"} {
		_, addr := serveWorker(t, node, data)
		addrs = append(addrs, relay(t, addr, record))
	}
	coord, err := NewCoordinator(addrs, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	prep, err := core.PrepareWith(stats.Collect(g), joinQuery, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := coord.ExecuteRemote(g, prep, core.Config{Trace: trace.NewCollector()}); err != nil {
		t.Fatal(err)
	}
	// The job of a cancelled context is held from the workers until the
	// coordinator has given up on it, so its abort always follows it.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	gate := make(chan struct{})
	mu.Lock()
	held = gate
	mu.Unlock()
	_, _, err = coord.ExecuteRemote(g, prep, core.Config{Context: ctx})
	mu.Lock()
	held = nil
	mu.Unlock()
	close(gate)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("a cancelled job returned %v", err)
	}
	if _, _, _, err := dialHello(addrs[0], hello{Magic: protoMagic, Version: protoVersion + 1, Role: roleControl}); err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("a hello from another build: %v", err)
	}
	missing := func() []byte {
		mu.Lock()
		defer mu.Unlock()
		var out []byte
		for typ := frameHello; typ < frameTypes; typ++ {
			if !crossed[typ] {
				out = append(out, typ)
			}
		}
		return out
	}
	deadline := time.Now().Add(4 * heartbeatInterval)
	for len(missing()) > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if m := missing(); len(m) > 0 {
		t.Fatalf("frame types %v never crossed", m)
	}
	// A read loop drops the connection of a type it does not take: one more
	// round of the heartbeat, and a frame that crossed unread has cost a member.
	time.Sleep(heartbeatInterval)
	if n := coord.LiveWorkers(); n != len(addrs) {
		t.Fatalf("%d of %d members alive: a frame that crossed was not read", n, len(addrs))
	}
}

// TestSharedWorkerKeepsCoordinatorsApart: a worker keys its runtimes and
// aborts by job and attempt alone, so two coordinators that share it number
// their jobs from random bases. The first runs a job; the second's job is
// then held on the shared worker - its other worker's job frame waits in a
// relay - while the first's late abort of its job reaches the shared worker,
// and a second job of the first's behind the abort shows it has been read.
// The second's job is not hit: one attempt, the first's rows.
func TestSharedWorkerKeepsCoordinatorsApart(t *testing.T) {
	g := tinyGraph()
	data := session.NewGraphData(g)
	shared, sharedAddr := serveWorker(t, "w0", data)
	_, otherAddr := serveWorker(t, "w1", data)
	prep, err := core.PrepareWith(stats.Collect(g), joinQuery, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	first, err := NewCoordinator([]string{sharedAddr}, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	want, _, err := first.ExecuteRemote(g, prep, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	first.mu.Lock()
	late := &attemptState{key: jobKey{job: first.jobSeq}, roster: []int{0}}
	first.mu.Unlock()

	gate := make(chan struct{})
	held := relay(t, otherAddr, func(toWorker bool, typ byte, payload []byte) (byte, []byte) {
		if toWorker && typ == frameJob {
			<-gate
		}
		return typ, payload
	})
	second, err := NewCoordinator([]string{sharedAddr, held}, Options{Workers: 4})
	if err != nil {
		close(gate)
		t.Fatal(err)
	}
	defer second.Close()
	type outcome struct {
		res *core.Result
		rep *session.ClusterReport
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, rep, err := second.ExecuteRemote(g, prep, core.Config{})
		ch <- outcome{res, rep, err}
	}()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		shared.mu.Lock()
		n := len(shared.jobs)
		shared.mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			close(gate)
			t.Fatal("the second coordinator's job never reached the shared worker")
		}
	}
	first.abortAttempt(late)
	_, _, err = first.ExecuteRemote(g, prep, core.Config{})
	close(gate)
	if err != nil {
		t.Fatal(err)
	}
	var o outcome
	select {
	case o = <-ch:
	case <-time.After(10 * time.Second):
		t.Fatal("the second coordinator's job hangs")
	}
	if o.err != nil || o.rep.Attempts != 1 {
		t.Fatalf("the second coordinator's job: %+v, %v; want one clean attempt", o.rep, o.err)
	}
	if !reflect.DeepEqual(o.res.Rows(), want.Rows()) {
		t.Fatalf("the second coordinator's job: %d rows, the first's %d", len(o.res.Rows()), len(want.Rows()))
	}
}
