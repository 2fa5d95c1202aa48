package cluster

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"weak"

	"gradoop/internal/core"
	"gradoop/internal/dataflow"
	"gradoop/internal/embedding"
	"gradoop/internal/field"
	"gradoop/internal/obs"
	"gradoop/internal/operators"
	"gradoop/internal/session"
	"gradoop/internal/trace"
	"gradoop/internal/wire"
)

// handshakeTimeout bounds every synchronous protocol step (hello/welcome,
// peer-mesh rendezvous) so a half-open connection can never park a job
// forever.
const handshakeTimeout = 15 * time.Second

// ErrPeerLost is wrapped into the structured job error when a shuffle
// participant's connection drops mid-collective.
var ErrPeerLost = errors.New("cluster: peer lost")

// errAborted marks attempts stopped by a coordinator abort.
var errAborted = errors.New("cluster: attempt aborted by coordinator")

// errFinished ends an attempt that is over, failed or not (jobRuntime.fail).
var errFinished = errors.New("cluster: attempt finished")

// Worker is one process of the cluster: it holds the full graph data, owns
// the partitions the coordinator assigns per job, executes shipped stage
// programs on the ordinary dataflow engine, and exchanges shuffle buckets
// directly with its peers.
type Worker struct {
	node   string
	data   *session.GraphData
	logger *slog.Logger

	// Telemetry plane: telemetry gates bundle shipping entirely (the
	// -no-telemetry escape hatch); metrics is the worker's own registry,
	// snapshotted into every bundle; observer feeds the engine's continuous
	// series into it.
	telemetry bool
	metrics   *obs.Registry
	observer  *dataflow.Observer
	winst     *workerInstruments

	mu     sync.Mutex
	cond   *sync.Cond
	ln     net.Listener
	conns  map[net.Conn]struct{}
	jobs   map[jobKey]*jobRuntime
	closed bool
	// orphanAfter is how long a runtime a peer's hello created waits for its
	// job frame: handshakeTimeout, and less in the test of it.
	orphanAfter time.Duration

	// wg counts every goroutine the worker spawned (connection handlers,
	// job executions, peer routers) so Wait can observe the full drain
	// after Crash/Close severed their sockets. Crash itself must NOT wait:
	// the fault-injection path calls it from inside a counted runJob
	// goroutine, where waiting would self-deadlock.
	wg sync.WaitGroup

	// failAfter > 0 injects a crash (full process death from the cluster's
	// point of view: listener and every connection closed) after that many
	// collective exchanges — the deterministic kill the recovery tests and
	// the chaos smoke drive.
	failAfter atomic.Int64
}

// WorkerOptions configures a worker's optional subsystems.
type WorkerOptions struct {
	// Logger records job failures (nil disables).
	Logger *slog.Logger
	// Metrics is the worker's own registry: the engine's continuous series
	// (stage histograms, retry counters) and the gradoop_worker_* surface
	// register here, and a snapshot rides in every telemetry bundle so the
	// coordinator can federate per-worker series (nil disables).
	Metrics *obs.Registry
	// NoTelemetry disables bundle shipping entirely —
	// the behavior-parity escape hatch. Execution is unaffected: workers
	// still trace (the per-stage records in jobDone derive from the spans),
	// rows stay bit-identical, retries unchanged.
	NoTelemetry bool
}

// NewWorkerWith creates a worker serving the given pinned graph data.
func NewWorkerWith(node string, data *session.GraphData, opts WorkerOptions) *Worker {
	w := &Worker{
		node:      node,
		data:      data,
		logger:    opts.Logger,
		telemetry: !opts.NoTelemetry,
		metrics:   opts.Metrics,
		observer:  dataflow.NewObserver(opts.Metrics),
		conns:     map[net.Conn]struct{}{},
		jobs:      map[jobKey]*jobRuntime{},

		orphanAfter: handshakeTimeout,
	}
	w.winst = newWorkerInstruments(opts.Metrics)
	w.cond = sync.NewCond(&w.mu)
	return w
}

// SetFailAfterExchanges arms the crash hook: the worker kills itself after
// n more collective exchanges (0 disarms).
func (w *Worker) SetFailAfterExchanges(n int64) { w.failAfter.Store(n) }

// Node returns the worker's node ID.
func (w *Worker) Node() string { return w.node }

// Serve accepts connections until the listener closes (Crash/Close).
func (w *Worker) Serve(ln net.Listener) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		ln.Close()
		return net.ErrClosed
	}
	w.ln = ln
	w.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if w.isClosed() {
				return nil
			}
			return err
		}
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			w.handleConn(conn)
		}()
	}
}

// Wait blocks until every goroutine the worker spawned has returned. Call
// it after Serve returns: Crash/Close only sever the listener and the
// sockets, which drives those goroutines to exit; Wait observes the drain.
func (w *Worker) Wait() { w.wg.Wait() }

// Crash simulates process death: the listener and every connection close
// immediately and every running job fails. Peers observe exactly what they
// would observe if the OS process died.
func (w *Worker) Crash() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	ln := w.ln
	conns := make([]net.Conn, 0, len(w.conns))
	for c := range w.conns {
		conns = append(conns, c)
	}
	jobs := make([]*jobRuntime, 0, len(w.jobs))
	for _, rt := range w.jobs {
		jobs = append(jobs, rt)
	}
	w.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	for _, rt := range jobs {
		rt.fail(errors.New("cluster: worker crashed"))
	}
}

// Close shuts the worker down (alias of Crash — a worker has no graceful
// drain; the coordinator's recovery handles it like any other loss).
func (w *Worker) Close() { w.Crash() }

func (w *Worker) isClosed() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.closed
}

func (w *Worker) track(conn net.Conn) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return false
	}
	w.conns[conn] = struct{}{}
	return true
}

func (w *Worker) untrack(conn net.Conn) {
	w.mu.Lock()
	delete(w.conns, conn)
	w.mu.Unlock()
}

// jobKey identifies one attempt of one job.
type jobKey struct {
	job     uint64
	attempt int
}

// runtime returns (creating if needed) the runtime for one attempt. Peer
// connections may arrive before the coordinator's Job frame, so both paths
// get-or-create; the job frame's - ctrl, the sender of the control connection
// it came on - is the one that owns the runtime and drops it when the attempt
// ends, and a peer's hello passes nil. A hello may also arrive for an attempt
// whose job has already come and gone here - this worker was aborted while a
// slower peer was still dialling - or never comes: a runtime no job frame has
// claimed orphanAfter its creation is dropped, and the peers that wait on it
// lose their connection. The timer that does so holds the runtime weakly:
// whether hello or job frame is first is a race every attempt runs, and a
// strong reference kept the runtime of each one the hello won - and through it
// the worker and its pinned graph, closed or not - alive for orphanAfter
// (40 MiB of resident set in one bench run and not in the next).
func (w *Worker) runtime(key jobKey, ctrl *sender) *jobRuntime {
	w.mu.Lock()
	defer w.mu.Unlock()
	rt, ok := w.jobs[key]
	if !ok {
		rt = newJobRuntime(w, key)
		w.jobs[key] = rt
		if ctrl == nil {
			ref := weak.Make(rt)
			time.AfterFunc(w.orphanAfter, func() {
				if rt := ref.Value(); rt != nil {
					rt.w.dropOrphan(rt)
				}
			})
		}
	}
	if ctrl != nil {
		rt.ctrl = ctrl
	}
	return rt
}

func (w *Worker) dropOrphan(rt *jobRuntime) {
	w.mu.Lock()
	orphan := rt.ctrl == nil && w.jobs[rt.key] == rt
	if orphan {
		delete(w.jobs, rt.key)
	}
	w.mu.Unlock()
	if orphan {
		rt.fail(errFinished)
	}
}

func (w *Worker) dropRuntime(rt *jobRuntime) {
	w.mu.Lock()
	if w.jobs[rt.key] == rt {
		delete(w.jobs, rt.key)
	}
	w.mu.Unlock()
	rt.fail(errFinished)
}

// handleConn performs the handshake and runs the connection's read loop:
// a control connection serves the coordinator until it drops; a peer
// connection is handed to the job attempt it belongs to and routed there.
func (w *Worker) handleConn(conn net.Conn) {
	if !w.track(conn) {
		conn.Close()
		return
	}
	defer w.untrack(conn)
	br := bufio.NewReaderSize(conn, 64<<10)
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	typ, payload, err := readFrame(br)
	if err != nil || typ != frameHello {
		conn.Close()
		return
	}
	var h hello
	if err := json.Unmarshal(payload, &h); err != nil {
		conn.Close()
		return
	}
	if h.Magic != protoMagic || h.Version != protoVersion {
		// Version skew must be a loud, structured refusal — two incompatible
		// builds exchanging frames would corrupt results silently.
		writeJSONFrame(conn, frameReject, reject{
			Reason: fmt.Sprintf("protocol mismatch: want magic %08x version %d, got %08x version %d",
				protoMagic, protoVersion, h.Magic, h.Version),
		})
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	if err := writeJSONFrame(conn, frameWelcome, welcome{Magic: protoMagic, Version: protoVersion, Node: w.node}); err != nil {
		conn.Close()
		return
	}
	switch h.Role {
	case roleControl:
		w.serveControl(conn, br)
	case rolePeer:
		rt := w.runtime(jobKey{job: h.JobID, attempt: h.Attempt}, nil)
		link := rt.addPeer(h.From, conn)
		if link == nil {
			conn.Close()
			return
		}
		rt.routePeer(h.From, link, br)
	default:
		conn.Close()
	}
}

// serveControl is the coordinator-facing loop: jobs start, aborts land,
// pings answer. When the connection drops every attempt it claimed and is
// still running fails - an orphaned worker must not keep executing for a
// coordinator that cannot hear the answer. A finished attempt has left
// w.jobs, so the connection keeps nothing per job.
func (w *Worker) serveControl(conn net.Conn, br *bufio.Reader) {
	send := newSender(conn)
	defer send.abort()
	defer func() {
		var rts []*jobRuntime
		w.mu.Lock()
		for _, rt := range w.jobs {
			if rt.ctrl == send {
				rts = append(rts, rt)
			}
		}
		w.mu.Unlock()
		for _, rt := range rts {
			rt.fail(errors.New("cluster: coordinator connection lost"))
		}
	}()
	for {
		typ, payload, err := readFrame(br)
		if err != nil {
			return
		}
		switch typ {
		case framePing:
			send.send(framePong, nil, nil)
		case frameJob:
			var spec jobSpec
			if err := json.Unmarshal(payload, &spec); err != nil {
				continue
			}
			rt := w.runtime(jobKey{job: spec.JobID, attempt: spec.Attempt}, send)
			w.wg.Add(1)
			go func() {
				defer w.wg.Done()
				w.runJob(&spec, rt, send)
			}()
		case frameAbort:
			var a abortMsg
			if err := json.Unmarshal(payload, &a); err != nil {
				continue
			}
			w.mu.Lock()
			rt := w.jobs[jobKey{job: a.JobID, attempt: a.Attempt}]
			w.mu.Unlock()
			if rt != nil {
				rt.fail(errAborted)
			}
		}
	}
}

// runJob executes one shipped job attempt and reports its terminal state.
// A successful attempt ships its telemetry bundle strictly before the done
// report (same ordered sender), so the coordinator never has to wait for a
// bundle after seeing the done. A failed attempt's spans have no reader -
// the coordinator merges the winning attempt's bundles only - so they are
// never copied out and die with the collector.
func (w *Worker) runJob(spec *jobSpec, rt *jobRuntime, ctrl *sender) {
	start := time.Now()
	done := jobDone{JobID: spec.JobID, Attempt: spec.Attempt}
	defer w.dropRuntime(rt)
	// Workers always trace: the per-stage predicted-vs-actual records the
	// coordinator publishes are derived from the spans. The collector epoch
	// is the attempt start, so every span offset is already rebased.
	col := trace.NewCollector()
	w.winst.jobs.Inc()
	wireOut, metrics, err := w.executeJob(spec, rt, ctrl, col)
	if err != nil {
		w.failed(&done, spec, rt, err)
	} else {
		// One copy out of the collector: the stage table and the bundle
		// read the same spans.
		spans := col.Spans()
		done.Stages = stageRecords(spans, dataflow.DefaultConfig(spec.Workers).Cost(), wireOut)
		done.Metrics = metrics
		if w.telemetry {
			w.shipTelemetry(spec, ctrl, spans, time.Since(start))
		}
	}
	w.winst.jobTime.ObserveSince(start)
	ctrl.sendJSON(frameJobDone, &done)
}

// failed fills the done report of an attempt that ended in err. It touches
// neither the collector nor the telemetry plane and allocates nothing unless
// a peer was lost or a logger is set (BenchmarkWorkerTelemetryDisabled).
func (w *Worker) failed(done *jobDone, spec *jobSpec, rt *jobRuntime, err error) {
	done.Error = err.Error()
	done.PeerLost, done.LostPeers = rt.lossInfo(err)
	w.winst.failures.Inc()
	if w.logger != nil {
		w.logger.Error("cluster job failed", "job", spec.JobID, "attempt", spec.Attempt,
			"trace", spec.TraceID, "err", err)
	}
}

// maxShippedSpans caps the spans one bundle carries: the newest ones of an
// attempt that ran more stages than that.
const maxShippedSpans = 512

// shipTelemetry encodes and sends the winning attempt's bundle.
func (w *Worker) shipTelemetry(spec *jobSpec, ctrl *sender, spans []trace.Span, elapsed time.Duration) {
	if len(spans) > maxShippedSpans {
		spans = spans[len(spans)-maxShippedSpans:]
	}
	bundle := telemetryBundle{
		Node:      w.node,
		TraceID:   spec.TraceID,
		ElapsedNs: int64(elapsed),
		Spans:     spans,
		Metrics:   w.metrics.Snapshot(),
	}
	body := encodeTelemetryBundle(&bundle)
	head := spec.head()
	if _, err := ctrl.send(frameTelemetry, head, []segment{{raw: body}}); err != nil {
		return // the control connection is gone; the done report will fail too
	}
	w.winst.shipped.Inc()
	w.winst.teleBytes.Add(int64(len(head) + len(body) + crcTrailer))
}

// executeJob builds the peer mesh, runs the planned query over this
// worker's owned partitions, and ships the owned result partitions. It
// returns the bytes the transport framed per stage and the job's metrics.
func (w *Worker) executeJob(spec *jobSpec, rt *jobRuntime, ctrl *sender, col *trace.Collector) (map[int64]int64, dataflow.MetricsSnapshot, error) {
	var zero dataflow.MetricsSnapshot
	if spec.Workers <= 0 || len(spec.Owner) != spec.Workers || spec.Self < 0 || spec.Self >= len(spec.Procs) {
		return nil, zero, fmt.Errorf("cluster: malformed job spec (workers=%d owners=%d self=%d procs=%d)",
			spec.Workers, len(spec.Owner), spec.Self, len(spec.Procs))
	}
	if err := w.connectMesh(spec, rt); err != nil {
		return nil, zero, err
	}
	params, err := wire.ReadParams(spec.Params)
	if err != nil {
		return nil, zero, fmt.Errorf("cluster: corrupt parameter encoding: %w", err)
	}

	cfg := dataflow.DefaultConfig(spec.Workers)
	env := dataflow.NewEnv(cfg)
	pt := &peerTransport{rt: rt, spec: spec, wireOut: map[int64]int64{}}
	env.SetTransport(pt)
	env.SetObserver(w.observer)

	g, access := w.data.Bind(env)
	ccfg := core.Config{
		Vertex:  operators.Semantics(spec.Vertex),
		Edge:    operators.Semantics(spec.Edge),
		Params:  params,
		Stats:   spec.Stats,
		Access:  access,
		Trace:   col,
		Timeout: time.Duration(spec.TimeoutNs),
	}
	prep, err := core.PrepareWith(spec.Stats, spec.Query, ccfg)
	if err != nil {
		return nil, zero, fmt.Errorf("cluster: worker planning failed: %w", err)
	}
	if fp := prep.Fingerprint(); fp != spec.Fingerprint {
		// Divergent plans would deadlock or silently mis-shuffle; refuse hard.
		return nil, zero, fmt.Errorf("cluster: plan fingerprint mismatch (coordinator %s, worker %s) — version or statistics skew",
			spec.Fingerprint, fp)
	}
	res, err := prep.Execute(g, ccfg)
	if err != nil {
		return nil, zero, err
	}
	if err := shipResults(spec, res.Embeddings, ctrl); err != nil {
		return nil, zero, err
	}
	return pt.wireOut, env.Metrics(), nil
}

// shipResults sends the attempt's result to the coordinator as a gather: one
// result frame whose body is gatherBody over the partitions this worker owns -
// empty when it owns none - and returns once the frame has been written into
// the connection's buffer, since, like a collective's, it is written from the
// rows (DESIGN decision 34).
func shipResults(spec *jobSpec, rows *dataflow.Dataset[embedding.Embedding], ctrl *sender) error {
	blobs := make([]dataflow.Bucket, spec.Workers)
	for p := range blobs {
		if spec.Owner[p] != spec.Self {
			continue
		}
		var err error
		if blobs[p], err = rows.Bucket(p); err != nil {
			return err
		}
	}
	seq, err := ctrl.send(frameResult, spec.head(), gatherBody(spec.Owner, spec.Self, blobs))
	if err == nil {
		err = ctrl.wait(seq)
	}
	if err != nil {
		return fmt.Errorf("cluster: shipping results: %w", err)
	}
	return nil
}

// connectMesh establishes the attempt's worker-to-worker connections:
// every worker dials the roster members above its own index and accepts
// from those below, so each pair shares exactly one connection.
func (w *Worker) connectMesh(spec *jobSpec, rt *jobRuntime) error {
	for j := range spec.Procs {
		if j == spec.Self {
			continue
		}
		if j < spec.Self {
			if err := rt.waitPeer(j); err != nil {
				return err
			}
			continue
		}
		conn, br, _, err := dialHello(spec.Procs[j].Addr, hello{
			Magic: protoMagic, Version: protoVersion, Role: rolePeer, Node: w.node,
			JobID: spec.JobID, Attempt: spec.Attempt, From: spec.Self,
		})
		if err != nil {
			rt.failPeer(j, err)
			return fmt.Errorf("%w: peer %d (%s): %v", ErrPeerLost, j, spec.Procs[j].Addr, err)
		}
		// Tracked once established: Close need not reach a handshake in
		// flight, its own deadline ends it.
		if !w.track(conn) {
			conn.Close()
			return errors.New("cluster: worker closed")
		}
		link := rt.addPeer(j, conn)
		if link == nil {
			conn.Close()
			w.untrack(conn)
			return errors.New("cluster: attempt already failed")
		}
		w.wg.Add(1)
		go func(j int) {
			defer w.wg.Done()
			defer w.untrack(conn)
			rt.routePeer(j, link, br)
		}(j)
	}
	return nil
}

// mailKey addresses one peer's contribution to one collective.
type mailKey struct {
	seq  uint64
	kind byte
	from int
}

// peerLink is one established worker-to-worker connection.
type peerLink struct {
	conn net.Conn
	send *sender
	// sent is the last data frame queued on the link, the one a collective
	// waits for before it returns. Only the job's driving goroutine sends on
	// a peer link, so only it touches sent.
	sent uint64
}

// jobRuntime is the per-attempt state shared between the job's driving
// goroutine (which executes the dataflow program and blocks in collectives)
// and the peer routers (which deliver incoming frames): a mailbox keyed by
// (seq, kind, sender) plus the attempt's failure state. Any failure —
// peer loss, abort, worker crash — wakes every waiter, so a collective can
// error out but never hang.
type jobRuntime struct {
	w   *Worker
	key jobKey
	// ctrl is the sender of the control connection whose job frame claimed
	// the attempt, nil until one has (under w.mu): the connection whose loss
	// fails it.
	ctrl *sender

	mu    sync.Mutex
	cond  *sync.Cond
	peers map[int]*peerLink
	inbox map[mailKey][]byte
	err   error
	// lost marks peers whose connection dropped, with the observed cause.
	// A loss is deliberately NOT a whole-attempt failure: a worker that
	// finishes a job with no remaining collectives closes its mesh
	// connections while slower peers may still be executing, and that
	// orderly departure is indistinguishable from a crash at the socket.
	// Only a collective that actually needs the lost peer's data (or its
	// socket) fails — by then every frame an orderly finisher owed us is
	// already in the inbox, so a genuine wait on a lost peer means a real
	// loss.
	lost map[int]error
}

func newJobRuntime(w *Worker, key jobKey) *jobRuntime {
	rt := &jobRuntime{
		w:     w,
		key:   key,
		peers: map[int]*peerLink{},
		inbox: map[mailKey][]byte{},
		lost:  map[int]error{},
	}
	rt.cond = sync.NewCond(&rt.mu)
	return rt
}

// addPeer registers an established peer connection, returning nil when the
// attempt has already failed or the slot is taken.
func (rt *jobRuntime) addPeer(idx int, conn net.Conn) *peerLink {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.err != nil || rt.peers[idx] != nil {
		return nil
	}
	link := &peerLink{conn: conn, send: newSender(conn)}
	rt.peers[idx] = link
	rt.cond.Broadcast()
	return link
}

// waitPeer blocks until peer idx has connected, the attempt fails, or the
// handshake window elapses.
func (rt *jobRuntime) waitPeer(idx int) error {
	deadline := time.AfterFunc(handshakeTimeout, func() {
		rt.failPeer(idx, errors.New("peer rendezvous timed out"))
	})
	defer deadline.Stop()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for rt.peers[idx] == nil && rt.err == nil && rt.lost[idx] == nil {
		rt.cond.Wait()
	}
	if rt.err != nil {
		return rt.err
	}
	if cause := rt.lost[idx]; cause != nil && rt.peers[idx] == nil {
		return fmt.Errorf("%w: peer %d: %v", ErrPeerLost, idx, cause)
	}
	return nil
}

// routePeer is a peer connection's read loop: data frames for this attempt
// land in the mailbox; anything else (stale attempts, corrupt frames,
// connection loss) fails the peer so waiters never hang.
func (rt *jobRuntime) routePeer(idx int, link *peerLink, br *bufio.Reader) {
	defer link.send.abort()
	for {
		typ, payload, err := readFrame(br)
		if err != nil {
			rt.failPeer(idx, err)
			return
		}
		if typ != frameData {
			continue
		}
		var f dataFrame
		c := field.Reader(payload)
		f.layout(&c)
		body, err := checkedBody(&c)
		if err != nil {
			rt.failPeer(idx, err)
			return
		}
		if f.JobID != rt.key.job || f.Attempt != rt.key.attempt {
			// A frame from a retired attempt; drop it.
			continue
		}
		rt.mu.Lock()
		rt.inbox[mailKey{seq: f.Seq, kind: f.Kind, from: f.From}] = body
		rt.cond.Broadcast()
		rt.mu.Unlock()
	}
}

// waitMail blocks until the addressed contribution arrives, the sender is
// lost with the mail still owed, or the attempt fails. The inbox check
// comes first: frames an orderly-departed peer delivered before closing
// stay consumable.
func (rt *jobRuntime) waitMail(key mailKey) ([]byte, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for {
		if body, ok := rt.inbox[key]; ok {
			delete(rt.inbox, key)
			return body, nil
		}
		if rt.err != nil {
			return nil, rt.err
		}
		if cause := rt.lost[key.from]; cause != nil {
			return nil, fmt.Errorf("%w: peer %d dropped owing collective %d: %v",
				ErrPeerLost, key.from, key.seq, cause)
		}
		rt.cond.Wait()
	}
}

// peerSend enqueues a data frame to roster member idx; a connection-level
// send failure is a peer loss.
func (rt *jobRuntime) peerSend(idx int, head []byte, body []segment) error {
	rt.mu.Lock()
	link := rt.peers[idx]
	err := rt.err
	rt.mu.Unlock()
	if err != nil {
		return err
	}
	if link == nil {
		return fmt.Errorf("%w: no connection to peer %d", ErrPeerLost, idx)
	}
	seq, err := link.send.send(frameData, head, body)
	if err != nil {
		rt.failPeer(idx, err)
		return fmt.Errorf("%w: sending to peer %d: %v", ErrPeerLost, idx, err)
	}
	link.sent = seq
	return nil
}

// peerWritten blocks until the last data frame queued to member idx has been
// written into its connection's buffer, or never will be. A frame its
// connection dropped is a lost peer - unless the attempt has failed, which
// aborts the links, and then the attempt's failure is the error.
func (rt *jobRuntime) peerWritten(idx int) error {
	rt.mu.Lock()
	link := rt.peers[idx]
	rt.mu.Unlock()
	if link == nil {
		return nil
	}
	err := link.send.wait(link.sent)
	if err == nil {
		return nil
	}
	rt.mu.Lock()
	failed := rt.err
	rt.mu.Unlock()
	if failed != nil {
		return failed
	}
	rt.failPeer(idx, err)
	return fmt.Errorf("%w: sending to peer %d: %v", ErrPeerLost, idx, err)
}

// fail records the attempt's first failure, wakes every waiter and stops the
// attempt's peer links. A failure aborts them: a collective that waits for
// its frame to be written into a connection nobody reads returns when the
// link's writer stops, and not before. The end of the attempt, errFinished,
// closes them gracefully, draining any queued frames first, so an orderly
// finisher's last collective contributions reach the slower peers before the
// FIN does.
func (rt *jobRuntime) fail(err error) {
	rt.mu.Lock()
	if rt.err == nil {
		rt.err = err
	}
	links := make([]*peerLink, 0, len(rt.peers))
	for _, l := range rt.peers {
		links = append(links, l)
	}
	rt.cond.Broadcast()
	rt.mu.Unlock()
	for _, l := range links {
		if err == errFinished {
			l.send.close()
		} else {
			l.send.abort()
		}
	}
}

// failPeer records a peer loss and wakes waiters; blame lands lazily on
// whichever collective actually needs the peer (see the lost field's doc).
func (rt *jobRuntime) failPeer(idx int, cause error) {
	rt.mu.Lock()
	if rt.lost[idx] == nil {
		rt.lost[idx] = cause
	}
	rt.cond.Broadcast()
	rt.mu.Unlock()
}

// lossInfo reports, for a failed attempt, whether the failure traces to a
// lost peer and which peers this worker saw drop. Only the peers the
// returned error actually blames matter — recorded-but-harmless losses
// (orderly finishers) must not be accused.
func (rt *jobRuntime) lossInfo(err error) (bool, []int) {
	if !errors.Is(err, ErrPeerLost) {
		return false, nil
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	idxs := make([]int, 0, len(rt.lost))
	for i := range rt.lost {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	return true, idxs
}

// peerTransport implements dataflow.Transport over the attempt's peer mesh.
// All methods run on the job's driving goroutine (the engine's contract),
// so the sequence counter needs no synchronization; each collective is
// matched across processes by that counter, and the router's mailbox holds
// early arrivals from faster peers.
type peerTransport struct {
	rt   *jobRuntime
	spec *jobSpec
	seq  uint64
	// wireOut attributes the bytes this process actually framed to peers,
	// per stage — the "actual shuffle bytes" side of the predicted-vs-actual
	// report (received bytes are the sending peer's wireOut; counting both
	// sides would double every byte in the cluster-wide sum).
	wireOut map[int64]int64
}

// Owns implements dataflow.Transport.
func (t *peerTransport) Owns(p int) bool { return t.spec.Owner[p] == t.spec.Self }

// Exchange implements dataflow.Transport: one frame per peer carries every
// (src partition, dst partition) bucket this process owes it, and each peer's
// frame is filed under incoming[destination][source].
func (t *peerTransport) Exchange(stage int64, outgoing [][]dataflow.Bucket) ([][][]byte, error) {
	owner, self := t.spec.Owner, t.spec.Self
	incoming := make([][][]byte, len(owner))
	for q := range incoming {
		if owner[q] == self {
			incoming[q] = make([][]byte, len(owner))
		}
	}
	err := t.collective(stage, kindExchange,
		func(j int) []segment { return exchangeBody(owner, self, j, outgoing) },
		func(j int, body []byte) error { return splitExchange(owner, self, j, body, incoming) })
	if err != nil {
		return nil, err
	}
	return incoming, nil
}

// AllGather implements dataflow.Transport: every process frames its owned
// partitions' buckets once and sends the identical frame to each peer.
func (t *peerTransport) AllGather(stage int64, blobs []dataflow.Bucket) ([][]byte, error) {
	owner := t.spec.Owner
	body := gatherBody(owner, t.spec.Self, blobs)
	out := make([][]byte, len(owner))
	err := t.collective(stage, kindAllGather,
		func(int) []segment { return body },
		func(j int, b []byte) error { return splitAllGather(owner, j, b, out) })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// collective is the one sequence every collective runs. It numbers the
// collective - the number that pairs it across processes - and runs the crash
// hook: an armed worker dies, as a process, every socket closed, after that
// many collectives. It queues one data frame of this kind to every peer j,
// body(j) its body, and waits until each has been written into its
// connection's buffer or dropped with it: a collective returns only then,
// having failed or not, because its frames are written from rows and routes
// the engine rewrites as soon as it has returned (DESIGN decision 34). Then it
// hands each peer's frame of the same collective to split.
func (t *peerTransport) collective(stage int64, kind byte, body func(j int) []segment, split func(j int, body []byte) error) error {
	t.seq++
	if w := t.rt.w; w.failAfter.Load() > 0 && w.failAfter.Add(-1) == 0 {
		w.Crash()
		return errors.New("cluster: injected worker crash")
	}
	head := t.dataHead(stage, kind)
	var err error
	for j := range t.spec.Procs {
		if j == t.spec.Self {
			continue
		}
		b := body(j)
		t.wireOut[stage] += wireSize(head, b)
		if err = t.rt.peerSend(j, head, b); err != nil {
			break
		}
	}
	for j := range t.spec.Procs {
		if j == t.spec.Self {
			continue
		}
		if werr := t.rt.peerWritten(j); err == nil {
			err = werr
		}
	}
	if err != nil {
		return err
	}
	for j := range t.spec.Procs {
		if j == t.spec.Self {
			continue
		}
		b, err := t.rt.waitMail(mailKey{seq: t.seq, kind: kind, from: j})
		if err != nil {
			return err
		}
		if err := split(j, b); err != nil {
			return err
		}
	}
	return nil
}

// exchangeBody lays out the body of the data frame that carries every bucket
// roster member self owes member j in one shuffle: per bucket a 12-byte head
// (source, destination, length) and the bucket, written from its rows when
// the frame is sent.
func exchangeBody(owner []int, self, j int, outgoing [][]dataflow.Bucket) []segment {
	var mine, theirs int
	for _, o := range owner {
		if o == self {
			mine++
		} else if o == j {
			theirs++
		}
	}
	heads := make([]byte, 0, 12*mine*theirs)
	body := make([]segment, 0, mine*theirs)
	for p := range owner {
		if owner[p] != self {
			continue
		}
		for q := range owner {
			if owner[q] != j {
				continue
			}
			at := len(heads)
			heads = binary.BigEndian.AppendUint32(heads, uint32(p))
			heads = binary.BigEndian.AppendUint32(heads, uint32(q))
			heads = binary.BigEndian.AppendUint32(heads, uint32(outgoing[p][q].WireSize()))
			body = append(body, segment{raw: heads[at:], bucket: outgoing[p][q]})
		}
	}
	return body
}

// splitExchange is the receiving end of exchangeBody: it files the buckets
// of member j's frame body under incoming[destination][source], each a view
// of the body clipped to its own length. A bucket between partitions j and
// self do not own, or filed twice, is an error.
func splitExchange(owner []int, self, j int, body []byte, incoming [][][]byte) error {
	w := len(owner)
	for len(body) > 0 {
		if len(body) < 12 {
			return fmt.Errorf("cluster: truncated exchange bucket header from peer %d", j)
		}
		p := int(binary.BigEndian.Uint32(body))
		q := int(binary.BigEndian.Uint32(body[4:]))
		n := int(binary.BigEndian.Uint32(body[8:]))
		body = body[12:]
		if n > len(body) {
			return fmt.Errorf("cluster: exchange bucket length %d exceeds frame from peer %d", n, j)
		}
		if p < 0 || p >= w || q < 0 || q >= w || owner[p] != j || owner[q] != self {
			return fmt.Errorf("cluster: misrouted exchange bucket %d->%d from peer %d", p, q, j)
		}
		if incoming[q][p] != nil {
			return fmt.Errorf("cluster: exchange bucket %d->%d filed twice by peer %d", p, q, j)
		}
		incoming[q][p] = body[:n:n] // a view of a body is never nil, empty or not
		body = body[n:]
	}
	return nil
}

// gatherBody lays out the body of a frame that carries roster member self's
// share of a gather: per owned partition an 8-byte head (partition, length)
// and its bucket. Every peer of an all-gather is sent the same one, and the
// coordinator a result.
func gatherBody(owner []int, self int, blobs []dataflow.Bucket) []segment {
	mine := 0
	for _, o := range owner {
		if o == self {
			mine++
		}
	}
	heads := make([]byte, 0, 8*mine)
	body := make([]segment, 0, mine)
	for p := range owner {
		if owner[p] != self {
			continue
		}
		at := len(heads)
		heads = binary.BigEndian.AppendUint32(heads, uint32(p))
		heads = binary.BigEndian.AppendUint32(heads, uint32(blobs[p].WireSize()))
		body = append(body, segment{raw: heads[at:], bucket: blobs[p]})
	}
	return body
}

// splitAllGather is the receiving end of gatherBody: it files member j's
// buckets under out[partition], each a view of the body clipped to its own
// length. A bucket of a partition j does not own, or filed twice, is an error.
func splitAllGather(owner []int, j int, body []byte, out [][]byte) error {
	w := len(owner)
	for len(body) > 0 {
		if len(body) < 8 {
			return fmt.Errorf("cluster: truncated all-gather header from peer %d", j)
		}
		p := int(binary.BigEndian.Uint32(body))
		n := int(binary.BigEndian.Uint32(body[4:]))
		body = body[8:]
		if n > len(body) {
			return fmt.Errorf("cluster: all-gather blob length %d exceeds frame from peer %d", n, j)
		}
		if p < 0 || p >= w || owner[p] != j {
			return fmt.Errorf("cluster: misrouted all-gather blob for partition %d from peer %d", p, j)
		}
		if out[p] != nil {
			return fmt.Errorf("cluster: all-gather blob for partition %d filed twice by peer %d", p, j)
		}
		out[p] = body[:n:n] // a view of a body is never nil, empty or not
		body = body[n:]
	}
	return nil
}

// dataHead is the header of this process's data frames of the current
// collective, the same for every peer.
func (t *peerTransport) dataHead(stage int64, kind byte) []byte {
	f := dataFrame{
		JobID:   t.spec.JobID,
		Attempt: t.spec.Attempt,
		Seq:     t.seq,
		Kind:    kind,
		From:    t.spec.Self,
		Stage:   stage,
	}
	c := field.Appender(nil)
	f.layout(&c)
	return c.Bytes()
}

// stageRecords derives the predicted-vs-actual table from the worker's
// trace: prediction is the cost model's SimTime over the stage's owned
// per-partition charges, actual is the stage's measured wall clock, model
// bytes are the charged cross-partition bytes, wire bytes what the
// transport framed.
func stageRecords(spans []trace.Span, cost trace.CostModel, wireOut map[int64]int64) []session.ClusterStage {
	recs := make([]session.ClusterStage, 0, len(spans))
	for i := range spans {
		s := &spans[i]
		recs = append(recs, session.ClusterStage{
			Stage:      s.Stage,
			Op:         s.Op,
			Kind:       s.Kind,
			Shuffle:    s.Shuffle,
			Predicted:  int64(s.SimTime(cost)),
			Actual:     int64(s.End - s.Start),
			ModelBytes: s.NetBytes(),
			WireBytes:  wireOut[s.Stage],
		})
	}
	return recs
}
