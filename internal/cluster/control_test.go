package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net"
	"os"
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
)

// tinyGraph is a small LDBC graph, generated over four partitions.
func tinyGraph() *epgm.LogicalGraph {
	return ldbc.Generate(dataflow.NewEnv(dataflow.DefaultConfig(4)), ldbc.Config{ScaleFactor: 0.02, Seed: 4}).Graph
}

// fakeWorker serves one control connection as a worker does, as far as the
// coordinator can tell: it answers every job frame with one result frame whose
// body is result(spec) and a clean done report, and every ping with a pong.
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
				if err := json.Unmarshal(payload, &spec); err != nil {
					t.Error(err)
					return
				}
				send.send(frameResult, spec.head(), result(&spec))
				send.send(frameJobDone, spec.head(), []segment{{raw: encodeJobDone(&jobDone{})}})
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
			coord, err := NewCoordinator(addrs, Options{Workers: 4, Partitioner: RangePartitioner{}})
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
// Dropping one connection fails its job promptly, with "coordinator connection
// lost", and the job leaves w.jobs; the job the other connection started runs
// on.
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

	const query = `MATCH (p1:Person)-[:knows]->(p2:Person), (p2)-[:knows]->(p3:Person) RETURN *`
	st := stats.Collect(g)
	prep, err := core.PrepareWith(st, query, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// start sends job over a control connection of its own and plays the
	// job's other roster member: it returns once the job's first collective
	// has sent it a frame, and answers nothing.
	start := func(job uint64) net.Conn {
		ctrl, _, _, err := dialHello(addr, hello{Magic: protoMagic, Version: protoVersion, Role: roleControl})
		if err != nil {
			t.Fatal(err)
		}
		spec := jobSpec{JobID: job, Query: query, Snapshot: 1, Workers: 2, Owner: []int{0, 1},
			Procs: []procSpec{{Node: "peer"}, {Node: "w1", Addr: addr}}, Self: 1, Fingerprint: prep.Fingerprint()}
		if err := writeJSONFrame(ctrl, frameStats, statsMsg{ID: 1, Stats: st}); err != nil {
			t.Fatal(err)
		}
		if err := writeJSONFrame(ctrl, frameJob, &spec); err != nil {
			t.Fatal(err)
		}
		peer, br, _, err := dialHello(addr, hello{Magic: protoMagic, Version: protoVersion, Role: rolePeer, Node: "peer", JobID: job})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { peer.Close() })
		peer.SetReadDeadline(time.Now().Add(10 * time.Second))
		for typ := byte(0); typ != frameData; {
			if typ, _, err = readFrame(br, nil); err != nil {
				t.Fatalf("job %d sent its peer no collective: %v", job, err)
			}
		}
		return ctrl
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
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.err != nil {
		t.Fatalf("the job of the other control connection failed: %v", rt.err)
	}
}

// corruptingProxy relays control connections to the worker at addr, with the
// body of every job frame the coordinator sends replaced by "{", which is no
// JSON.
func corruptingProxy(t *testing.T, addr string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
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
			wg.Add(2)
			go func() {
				defer wg.Done()
				defer in.Close()
				io.Copy(in, out)
			}()
			go func() {
				defer wg.Done()
				defer out.Close()
				br := bufio.NewReader(in)
				for {
					typ, payload, err := readFrame(br, nil)
					if err != nil {
						return
					}
					if typ == frameJob {
						payload = []byte("{")
					}
					if err := writeFrame(out, typ, payload); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestUndecodableControlFrameDropsTheConnection: a job frame the worker cannot
// decode closes its control connection - no done report would ever come, and
// the pongs would keep the member alive - so the coordinator sees a lost
// member: it recovers on the survivors, and with none left it returns an
// error. It never waits.
func TestUndecodableControlFrameDropsTheConnection(t *testing.T) {
	g := tinyGraph()
	data := session.NewGraphData(g)
	_, addr := serveWorker(t, "w0", data)

	ctrl := dialControl(t, addr)
	ctrl.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if err := writeFrame(ctrl.conn, frameJob, []byte("{")); err != nil {
		t.Fatal(err)
	}
	for {
		if _, _, err := readFrame(ctrl.br, nil); err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatal("the worker kept the control connection of an undecodable job frame open")
			}
			break
		}
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
				t.Fatal("the job of an undecodable job frame hangs")
			}
			switch {
			case len(tc.addrs) > 1 && (o.err != nil || !o.rep.Recovered):
				t.Fatalf("want a recovery on the survivor, got %+v, %v", o.rep, o.err)
			case len(tc.addrs) == 1 && o.err == nil:
				t.Fatal("want an error with no worker left")
			}
		})
	}
}
