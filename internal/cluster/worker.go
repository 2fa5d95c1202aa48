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

// NewWorker creates a worker serving the given pinned graph data, with
// telemetry shipping enabled and no metrics registry. A nil logger
// disables logging.
func NewWorker(node string, data *session.GraphData, logger *slog.Logger) *Worker {
	return NewWorkerWith(node, data, WorkerOptions{Logger: logger})
}

// NewWorkerWith creates a worker with explicit options.
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
// get-or-create; the job frame's (claim) is the one that owns the runtime and
// drops it when the attempt ends. A hello may also arrive for an attempt whose
// job has already come and gone here - this worker was aborted while a slower
// peer was still dialling - or never comes: a runtime no job frame has
// claimed orphanAfter its creation is dropped, and the peers that wait on it
// lose their connection. The timer that does so holds the runtime weakly:
// whether hello or job frame is first is a race every attempt runs, and a
// strong reference kept the runtime of each one the hello won - and through it
// the worker and its pinned graph, closed or not - alive for orphanAfter
// (40 MiB of resident set in one bench run and not in the next).
func (w *Worker) runtime(key jobKey, claim bool) *jobRuntime {
	w.mu.Lock()
	defer w.mu.Unlock()
	rt, ok := w.jobs[key]
	if !ok {
		rt = newJobRuntime(w, key)
		w.jobs[key] = rt
		if !claim {
			ref := weak.Make(rt)
			time.AfterFunc(w.orphanAfter, func() {
				if rt := ref.Value(); rt != nil {
					rt.w.dropOrphan(rt)
				}
			})
		}
	}
	if claim {
		rt.claimed = true
	}
	return rt
}

func (w *Worker) dropOrphan(rt *jobRuntime) {
	w.mu.Lock()
	orphan := !rt.claimed && w.jobs[rt.key] == rt
	if orphan {
		delete(w.jobs, rt.key)
	}
	w.mu.Unlock()
	if orphan {
		rt.shutdown()
	}
}

func (w *Worker) dropRuntime(rt *jobRuntime) {
	w.mu.Lock()
	if w.jobs[rt.key] == rt {
		delete(w.jobs, rt.key)
	}
	w.mu.Unlock()
	rt.shutdown()
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
		rt := w.runtime(jobKey{job: h.JobID, attempt: h.Attempt}, false)
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
// pings answer. When the connection drops every job it started fails — an
// orphaned worker must not keep executing for a coordinator that cannot
// hear the answer.
func (w *Worker) serveControl(conn net.Conn, br *bufio.Reader) {
	send := newSender(conn)
	defer send.abort()
	var started []jobKey
	defer func() {
		w.mu.Lock()
		rts := make([]*jobRuntime, 0, len(started))
		for _, key := range started {
			if rt, ok := w.jobs[key]; ok {
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
			send.send(framePong)
		case frameJob:
			var spec jobSpec
			if err := json.Unmarshal(payload, &spec); err != nil {
				continue
			}
			started = append(started, jobKey{job: spec.JobID, attempt: spec.Attempt})
			w.wg.Add(1)
			go func() {
				defer w.wg.Done()
				w.runJob(&spec, send)
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
func (w *Worker) runJob(spec *jobSpec, ctrl *sender) {
	start := time.Now()
	done := jobDone{JobID: spec.JobID, Attempt: spec.Attempt}
	rt := w.runtime(jobKey{job: spec.JobID, attempt: spec.Attempt}, true)
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
		done.Telemetry = w.telemetry
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
	f := telemetryFrame{JobID: spec.JobID, Attempt: spec.Attempt, From: spec.Self, crc: checksum(body)}
	c := field.Appender(nil)
	f.layout(&c)
	head := c.Bytes()
	if err := ctrl.send(frameTelemetry, head, body); err != nil {
		return // the control connection is gone; the done report will fail too
	}
	w.winst.shipped.Inc()
	w.winst.teleBytes.Add(int64(len(head) + len(body)))
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
	prep, err := core.PrepareWith(access, spec.Stats, spec.Query, ccfg)
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
	for p := 0; p < spec.Workers; p++ {
		if spec.Owner[p] != spec.Self {
			continue
		}
		body, err := dataflow.EncodeBucket(res.Embeddings.Partition(p))
		if err != nil {
			return nil, zero, err
		}
		f := resultFrame{JobID: spec.JobID, Attempt: spec.Attempt, Partition: p, crc: checksum(body)}
		c := field.Appender(nil)
		f.layout(&c)
		if err := ctrl.send(frameResult, c.Bytes(), body); err != nil {
			return nil, zero, fmt.Errorf("cluster: shipping partition %d: %w", p, err)
		}
	}
	return pt.wireOut, env.Metrics(), nil
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
	// claimed: the attempt's job frame has arrived (under w.mu).
	claimed bool

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
	done bool
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
	if rt.done || rt.err != nil || rt.peers[idx] != nil {
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
		body, err := checkedBody(&c, f.crc)
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

// peerSend enqueues a data frame, its payload in segments, to roster member
// idx; a connection-level send failure is a peer loss.
func (rt *jobRuntime) peerSend(idx int, payload [][]byte) error {
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
	if err := link.send.send(frameData, payload...); err != nil {
		rt.failPeer(idx, err)
		return fmt.Errorf("%w: sending to peer %d: %v", ErrPeerLost, idx, err)
	}
	return nil
}

// fail records the attempt's first failure and wakes every waiter.
func (rt *jobRuntime) fail(err error) {
	rt.mu.Lock()
	if rt.err == nil {
		rt.err = err
	}
	rt.cond.Broadcast()
	rt.mu.Unlock()
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

// shutdown closes the attempt's peer connections — gracefully, draining
// any queued frames first, so an orderly finisher's last collective
// contributions reach the slower peers before the FIN does.
func (rt *jobRuntime) shutdown() {
	rt.mu.Lock()
	rt.done = true
	if rt.err == nil {
		rt.err = errors.New("cluster: attempt finished")
	}
	links := make([]*peerLink, 0, len(rt.peers))
	for _, l := range rt.peers {
		links = append(links, l)
	}
	rt.cond.Broadcast()
	rt.mu.Unlock()
	for _, l := range links {
		l.send.close()
	}
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

// maybeCrash drives the deterministic fault injection: when armed, the
// worker dies (as a process: every socket closed) after the configured
// number of collectives.
func (t *peerTransport) maybeCrash() error {
	if t.rt.w.failAfter.Load() <= 0 {
		return nil
	}
	if t.rt.w.failAfter.Add(-1) == 0 {
		t.rt.w.Crash()
		return errors.New("cluster: injected worker crash")
	}
	return nil
}

// Exchange implements dataflow.Transport: one frame per peer carries every
// (src partition, dst partition) bucket this process owes it; the mailbox
// wait returns the symmetric frames.
func (t *peerTransport) Exchange(stage int64, outgoing [][][]byte) ([][][]byte, error) {
	t.seq++
	if err := t.maybeCrash(); err != nil {
		return nil, err
	}
	w, self, owner := t.spec.Workers, t.spec.Self, t.spec.Owner
	for j := range t.spec.Procs {
		if j == self {
			continue
		}
		payload := exchangePayload(owner, self, j, outgoing)
		t.wireOut[stage] += t.seal(stage, kindExchange, payload)
		if err := t.rt.peerSend(j, payload); err != nil {
			return nil, err
		}
	}
	incoming := make([][][]byte, w)
	for q := 0; q < w; q++ {
		if owner[q] == self {
			incoming[q] = make([][]byte, w)
		}
	}
	for j := range t.spec.Procs {
		if j == self {
			continue
		}
		body, err := t.rt.waitMail(mailKey{seq: t.seq, kind: kindExchange, from: j})
		if err != nil {
			return nil, err
		}
		if err := splitExchange(owner, self, j, body, incoming); err != nil {
			return nil, err
		}
	}
	return incoming, nil
}

// exchangePayload lays out the body of the data frame that carries every
// bucket roster member self owes member j in one shuffle: per bucket a
// 12-byte head (source, destination, length) and the bucket where the engine
// encoded it - nothing is concatenated. Element 0 is left for the header.
func exchangePayload(owner []int, self, j int, outgoing [][][]byte) [][]byte {
	var mine, theirs int
	for _, o := range owner {
		if o == self {
			mine++
		} else if o == j {
			theirs++
		}
	}
	heads := make([]byte, 0, 12*mine*theirs)
	payload := make([][]byte, 1, 1+2*mine*theirs)
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
			heads = binary.BigEndian.AppendUint32(heads, uint32(len(outgoing[p][q])))
			payload = append(payload, heads[at:], outgoing[p][q])
		}
	}
	return payload
}

// splitExchange is the receiving end of exchangePayload: it files the buckets
// of member j's frame body under incoming[destination][source], each a view
// of the body clipped to its own length.
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
		incoming[q][p] = body[:n:n]
		body = body[n:]
	}
	return nil
}

// AllGather implements dataflow.Transport: every process frames its owned
// partitions' blobs once and sends the identical body to each peer.
func (t *peerTransport) AllGather(stage int64, blobs [][]byte) ([][]byte, error) {
	t.seq++
	if err := t.maybeCrash(); err != nil {
		return nil, err
	}
	w, self, owner := t.spec.Workers, t.spec.Self, t.spec.Owner
	heads := make([]byte, 0, 8*w)
	payload := make([][]byte, 1, 1+2*w)
	for p := 0; p < w; p++ {
		if owner[p] != self {
			continue
		}
		at := len(heads)
		heads = binary.BigEndian.AppendUint32(heads, uint32(p))
		heads = binary.BigEndian.AppendUint32(heads, uint32(len(blobs[p])))
		payload = append(payload, heads[at:], blobs[p])
	}
	wire := t.seal(stage, kindAllGather, payload)
	for j := range t.spec.Procs {
		if j == self {
			continue
		}
		t.wireOut[stage] += wire
		if err := t.rt.peerSend(j, payload); err != nil {
			return nil, err
		}
	}
	out := make([][]byte, w)
	for p := 0; p < w; p++ {
		if owner[p] == self {
			out[p] = blobs[p]
		}
	}
	for j := range t.spec.Procs {
		if j == self {
			continue
		}
		body, err := t.rt.waitMail(mailKey{seq: t.seq, kind: kindAllGather, from: j})
		if err != nil {
			return nil, err
		}
		for len(body) > 0 {
			if len(body) < 8 {
				return nil, fmt.Errorf("cluster: truncated all-gather header from peer %d", j)
			}
			p := int(binary.BigEndian.Uint32(body))
			n := int(binary.BigEndian.Uint32(body[4:]))
			body = body[8:]
			if n > len(body) {
				return nil, fmt.Errorf("cluster: all-gather blob length %d exceeds frame from peer %d", n, j)
			}
			if p < 0 || p >= w || owner[p] != j {
				return nil, fmt.Errorf("cluster: misrouted all-gather blob for partition %d from peer %d", p, j)
			}
			out[p] = body[:n:n]
			body = body[n:]
		}
	}
	return out, nil
}

// seal completes one collective's contribution to a peer: payload[1:] is
// the body and payload[0], left free, gets the header. It returns what the
// frame puts on the socket. Once handed to a sender the segments are
// read-only; an all-gather sends the same ones to every peer.
func (t *peerTransport) seal(stage int64, kind byte, payload [][]byte) (wire int64) {
	f := dataFrame{
		JobID:   t.spec.JobID,
		Attempt: t.spec.Attempt,
		Seq:     t.seq,
		Kind:    kind,
		From:    t.spec.Self,
		Stage:   stage,
		crc:     checksum(payload[1:]...),
	}
	c := field.Appender(nil)
	f.layout(&c)
	payload[0] = c.Bytes()
	wire = frameHeader
	for _, seg := range payload {
		wire += int64(len(seg))
	}
	return wire
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
