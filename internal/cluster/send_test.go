package cluster

import (
	"bufio"
	"errors"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"gradoop/internal/dataflow"
	"gradoop/internal/embedding"
	"gradoop/internal/epgm"
	"gradoop/internal/leakcheck"
)

// wideRows is n rows of about 60 bytes on the wire.
func wideRows(n int) []embedding.Embedding {
	var slab embedding.Slab
	rows := make([]embedding.Embedding, n)
	for i := range rows {
		rows[i] = slab.Row([]epgm.ID{epgm.ID(i), epgm.ID(i + n)},
			[]epgm.PropertyValue{epgm.PVString("Alice"), epgm.PVInt(int64(1980 + i%30))})
	}
	return rows
}

// pipeLink gives w a link to peer p over a pipe, as if w had dialled it, and
// returns the peer's end, which reads only what the test reads.
func pipeLink(w *Worker, p procSpec) net.Conn {
	near, far := net.Pipe()
	ready := make(chan struct{})
	close(ready)
	w.mu.Lock()
	w.links[p.Node] = &peerLink{addr: p.Addr, ready: ready, send: newSender(stallConn{near})}
	w.mu.Unlock()
	return far
}

// stalledPeer is an attempt of w whose one peer, member 1 (node w1), is linked
// over a pipe: far is the peer's end. The attempt's transport owns partition 0
// of two.
func stalledPeer(t *testing.T, w *Worker) (rt *jobRuntime, far net.Conn, pt *peerTransport) {
	t.Helper()
	rt = w.runtime(jobKey{job: 1}, &sender{})
	peer := procSpec{Node: "w1", Addr: "pipe"}
	far = pipeLink(w, peer)
	spec := &jobSpec{JobID: 1, Workers: 2, Owner: []int{0, 1}, Self: 0, Procs: []procSpec{{Node: "w0"}, peer}}
	pt, err := w.transport(spec, rt)
	if err != nil {
		t.Fatal(err)
	}
	return rt, far, pt
}

// linkLostTo checks that w's link to w1, the pipe peer of stalledPeer, is
// down - its writer gone, and the link forgotten, so that the next job dials
// it again - and that rt recorded the loss of w1.
func linkLostTo(t *testing.T, w *Worker, rt *jobRuntime, pt *peerTransport) {
	t.Helper()
	select {
	case <-pt.out[1].send.done:
	case <-time.After(5 * time.Second):
		t.Fatal("the link's writer outlived its connection")
	}
	if peers := rt.lostPeers(ErrPeerLost, pt.spec.Procs); len(peers) != 1 || peers[0] != 1 {
		t.Fatalf("the attempt records lost peers %v, want member 1", peers)
	}
	w.mu.Lock()
	l := w.links["w1"]
	w.mu.Unlock()
	if l != nil {
		t.Fatal("the worker keeps a link whose writer failed: the next job would not dial it again")
	}
}

// exchangeInBackground runs one exchange of a bucket larger than the sender's
// buffer - so it cannot be written while nobody reads - and returns its
// result channel, having checked that it is still waiting 50 ms later.
func exchangeInBackground(t *testing.T, pt *peerTransport) <-chan error {
	t.Helper()
	b, err := dataflow.FromSlice(dataflow.NewEnv(dataflow.DefaultConfig(1)), wideRows(5000)).Bucket(0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := pt.Exchange(1, [][]dataflow.Bucket{{{}, b}, nil})
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("Exchange returned (%v) while its frame could not be written", err)
	case <-time.After(50 * time.Millisecond):
	}
	return done
}

// TestStalledPeerFailsExchange is TestMidStreamDropFailsCollective's send-side
// twin: the peer reads the first bytes of the frame, stops reading, then
// closes, while Exchange waits for its own frame to be written from the rows.
// The wait ends with a structured ErrPeerLost, the link's writer ends, the
// worker holds the link down and the attempt its peer lost, and no goroutine
// is left behind.
func TestStalledPeerFailsExchange(t *testing.T) {
	leakcheck.Check(t)
	w := NewWorkerWith("w0", nil, WorkerOptions{})
	rt, far, pt := stalledPeer(t, w)
	done := exchangeInBackground(t, pt)
	if _, err := far.Read(make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // the peer has stopped reading
	far.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrPeerLost) {
			t.Fatalf("got %v, want ErrPeerLost", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Exchange hung on a frame its peer stopped reading")
	}
	linkLostTo(t, w, rt, pt)
	w.dropRuntime(rt)
}

// TestAbortEndsHalfWrittenFrame: an abort frame - what the coordinator sends
// when an attempt is given up, its timeout included - lands while a frame is
// half written to a peer that has stopped reading but keeps its connection.
// The link is the worker's, and the abort leaves it be: the write that makes
// no progress fails heartbeatTimeout after it began, the link with it, and
// Exchange returns the abort then, not never.
func TestAbortEndsHalfWrittenFrame(t *testing.T) {
	leakcheck.Check(t)
	w := NewWorkerWith("w0", nil, WorkerOptions{})
	rt, far, pt := stalledPeer(t, w)
	defer far.Close()
	ctrl, served := net.Pipe()
	go w.serveControl(served, bufio.NewReader(served))
	done := exchangeInBackground(t, pt)
	if _, err := far.Read(make([]byte, 32<<10)); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(ctrl, frameAbort, (&attemptHead{JobID: 1}).bytes()); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		t.Fatalf("Exchange returned (%v) as the abort landed: the attempt's end tore the link down", err)
	case <-time.After(100 * time.Millisecond):
	}
	select {
	case err := <-done:
		if !errors.Is(err, errAborted) {
			t.Fatalf("got %v, want the abort", err)
		}
	case <-time.After(heartbeatTimeout + time.Second):
		t.Fatal("Exchange outlived the abort of its attempt by more than the link's write deadline")
	}
	linkLostTo(t, w, rt, pt)
	ctrl.Close()
	w.dropRuntime(rt)
}

// discardConn is a connection that takes every write.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }
func (discardConn) Close() error                { return nil }

// TestSenderAbortReleasesWaiters: a sender stuck in a write, with frames
// queued behind it, is aborted. Every waiter - of the frame in the writer's
// hands and of those queued behind it - returns the connection's error once
// the writer has let go, and a frame sent to a healthy connection is waited
// for until it has been written.
func TestSenderAbortReleasesWaiters(t *testing.T) {
	near, far := net.Pipe() // nobody reads far: a frame longer than the buffer blocks
	defer far.Close()
	s := newSender(near)
	var seqs []uint64
	for i := 0; i < 3; i++ {
		seq, err := s.send(frameJob, make([]byte, 100<<10), nil)
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, seq)
	}
	waited := make(chan error, len(seqs))
	for _, seq := range seqs {
		go func() { waited <- s.wait(seq) }()
	}
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-waited:
		t.Fatalf("a waiter returned (%v) before its frame was written", err)
	default:
	}
	s.abort()
	for range seqs {
		select {
		case err := <-waited:
			if err == nil {
				t.Fatal("a frame the aborted sender never wrote was reported written")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("abort left a waiter behind")
		}
	}
	if err := s.wait(seqs[2]); err == nil {
		t.Fatal("wait after abort reported a frame written")
	}

	ok := newSender(discardConn{})
	defer ok.abort()
	seq, err := ok.send(frameJob, make([]byte, 100), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ok.wait(seq); err != nil {
		t.Fatalf("a frame to a connection that takes it: %v", err)
	}
}

// TestFrameSendIsBounded: sending a done report with a result partition of
// 5 000 and of 50 000 rows allocates the same bytes on the sending side - the
// report, the frame's place in the queue - because a bucket is written from
// the rows into the connection's buffer, a row at a time, and never built.
func TestFrameSendIsBounded(t *testing.T) {
	s := newSender(discardConn{})
	defer s.abort()
	spec := &jobSpec{JobID: 1, Workers: 1, Owner: []int{0}}
	var report jobDone // the caller's, as runJob's is
	send := func(rows *dataflow.Dataset[embedding.Embedding]) {
		result, err := resultBody(spec, rows)
		if err == nil {
			err = sendDone(s, &report, result)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	sent := func(n int) uint64 {
		rows := dataflow.FromSlice(dataflow.NewEnv(dataflow.DefaultConfig(1)), wideRows(n))
		send(rows) // warm: the writer's buffer exists
		least := ^uint64(0)
		for try := 0; try < 3; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			send(rows)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	small, large := sent(5000), sent(50000)
	t.Logf("sending 5 000 rows allocates %d bytes, 50 000 rows %d", small, large)
	if small != large || large > 1<<10 {
		t.Fatalf("sending 5 000 rows allocates %d bytes and 50 000 rows %d: want the same few hundred", small, large)
	}
}

// shortSized is an element whose WireSize is a byte short of what it writes.
type shortSized struct{}

func (*shortSized) WireSize() int                { return 1 }
func (*shortSized) AppendWire(dst []byte) []byte { return append(dst, 1, 2) }
func (*shortSized) WireReader() func(*shortSized, []byte) ([]byte, error) {
	return func(_ *shortSized, b []byte) ([]byte, error) { return b[2:], nil }
}

// TestWriterHoldsBucketsToTheirSize: a frame's length is written before its
// body, from the sizes its buckets declared; a bucket that writes another
// number of bytes fails the frame, and with it the connection, instead of
// desynchronising the stream.
func TestWriterHoldsBucketsToTheirSize(t *testing.T) {
	b, err := dataflow.FromSlice(dataflow.NewEnv(dataflow.DefaultConfig(1)), make([]shortSized, 10)).Bucket(0)
	if err != nil {
		t.Fatal(err)
	}
	f := &outFrame{typ: frameJobDone, body: []segment{{bucket: b}}}
	err = newFrameWriter(discardConn{}).frame(f)
	if want := "declared 14 bytes and wrote 24"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("got %v, want %q", err, want)
	}
}
