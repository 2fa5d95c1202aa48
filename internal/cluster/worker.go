package cluster

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"net"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"weak"

	"gradoop/internal/core"
	"gradoop/internal/dataflow"
	"gradoop/internal/embedding"
	"gradoop/internal/epgm"
	"gradoop/internal/field"
	"gradoop/internal/obs"
	"gradoop/internal/operators"
	"gradoop/internal/planner"
	"gradoop/internal/session"
	"gradoop/internal/stats"
	"gradoop/internal/trace"
	"gradoop/internal/wire"
)

// handshakeTimeout bounds the one synchronous protocol step, a dial and its
// hello and welcome, so a half-open connection can never park a job forever.
const handshakeTimeout = 15 * time.Second

// ErrPeerLost is wrapped into the structured job error when a link to a
// shuffle participant drops, or cannot be dialled.
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

	// Telemetry plane: metrics is the worker's own registry, snapshotted onto
	// the heartbeat; observer feeds the engine's continuous series into it.
	// finished counts the job attempts that have ended, which a control
	// connection holds against the count its last snapshot was taken at.
	metrics  *obs.Registry
	observer *dataflow.Observer
	winst    *workerInstruments
	finished atomic.Uint64

	// plans are the plans this worker has made, keyed by the statistics
	// snapshot, query, semantics and P of a job (planKey); snapshots numbers
	// the snapshots the worker has decoded, which is what the key says of
	// one: two coordinators may give theirs the same id.
	plans     *session.PlanCache
	snapshots atomic.Uint64

	// spare is the receive memory the worker keeps between attempts: the
	// buffers of ended attempts' receive arenas, spareBytes in all and at most
	// spareRecvBytes, which the next attempts carve frame bodies from (DESIGN
	// decision 38).
	spareMu    sync.Mutex
	spare      [][]byte
	spareBytes int

	mu     sync.Mutex
	cond   *sync.Cond
	ln     net.Listener
	conns  map[net.Conn]struct{}
	jobs   map[jobKey]*jobRuntime
	closed bool
	// links are the worker's links to its peers, by node (peerLink).
	links map[string]*peerLink
	// moved are the links to a peer's old address: a job that named it there
	// may still send on one, so each stays up until the worker closes.
	moved []*peerLink
	// orphanAfter is how long a runtime a peer's frame created waits for its
	// job frame: handshakeTimeout, and less in the test of it.
	orphanAfter time.Duration

	// wg counts every goroutine the worker spawned (connection handlers, the
	// routers of the links its peers dialled among them, and job executions)
	// so Wait can observe the full drain after Crash/Close severed their
	// sockets. Crash itself must NOT wait: the fault-injection path calls it
	// from inside a counted runJob goroutine, where waiting would
	// self-deadlock.
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
	// register here, and a snapshot rides the heartbeat - once a coordinator
	// has connected, then after every job, at most once a heartbeat - so the
	// coordinator can federate per-worker series (nil disables).
	Metrics *obs.Registry
}

// planCacheEntries bounds a worker's plan cache, as a session's is by
// default.
const planCacheEntries = 128

// recvChunk is what an attempt's receive arena carves the bodies of frames
// smaller than it from; a larger frame gets a buffer of its own. At 256 KiB
// nearly every frame of the benchmark's queries at SF 3 (1 364 of 1 430) is
// carved from chunks, which are all alike, and a worker keeps 3.4-4.8 MB
// between attempts; at 64 KiB a third of the frames got buffers of their own
// sizes, which stayed on the spare list until it was full.
const recvChunk = 256 << 10

// spareRecvBytes bounds the receive memory a worker keeps between attempts:
// about twice the most one attempt of the benchmark's queries receives at
// SF 3 (4.8 MB). An attempt that receives more allocates what the spare list
// cannot give it, and a buffer larger than the bound is never kept.
const spareRecvBytes = 8 << 20

// scribbleSpare, set by tests, overwrites every buffer an attempt's arena
// gives back before the worker keeps it, so that a row still read from it
// reads garbage instead of the bytes it had.
var scribbleSpare bool

// NewWorkerWith creates a worker serving the given pinned graph data.
func NewWorkerWith(node string, data *session.GraphData, opts WorkerOptions) *Worker {
	w := &Worker{
		node:     node,
		data:     data,
		logger:   opts.Logger,
		metrics:  opts.Metrics,
		observer: dataflow.NewObserver(opts.Metrics),
		plans:    session.NewPlanCache(planCacheEntries),
		conns:    map[net.Conn]struct{}{},
		jobs:     map[jobKey]*jobRuntime{},
		links:    map[string]*peerLink{},

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
	var links []*sender
	for _, l := range append(slices.Collect(maps.Values(w.links)), w.moved...) {
		if l.send != nil {
			links = append(links, l.send)
		}
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
	for _, s := range links {
		s.abort()
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

// runtime returns (creating if needed) the runtime for one attempt. A peer's
// data frames may arrive before the coordinator's Job frame, so both paths
// get-or-create; the job frame's - ctrl, the sender of the control connection
// it came on - is the one that owns the runtime and drops it when the attempt
// ends, and a peer link's router passes nil. A frame may also arrive for an
// attempt whose job has already come and gone here - this worker was aborted
// while a slower peer was still sending - and then its job frame never comes:
// a runtime no job frame has claimed orphanAfter its creation is dropped. The
// timer that does so holds the runtime weakly: whether a peer's frame or the
// job frame is first is a race every attempt runs, and a strong reference kept
// the runtime of each one the frame won - and through it the worker and its
// pinned graph, closed or not - alive for orphanAfter (40 MiB of resident set
// in one bench run and not in the next).
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
		rt.release()
	}
}

// dropRuntime ends an attempt: runJob defers it, so by then every reader of
// the attempt's rows has returned, and its receive arena goes back to the
// worker.
func (w *Worker) dropRuntime(rt *jobRuntime) {
	w.mu.Lock()
	if w.jobs[rt.key] == rt {
		delete(w.jobs, rt.key)
	}
	w.mu.Unlock()
	rt.fail(errFinished)
	rt.release()
}

// takeSpare takes the smallest spare buffer of at least n bytes off the
// worker's list, or returns nil when none is that large.
func (w *Worker) takeSpare(n int) []byte {
	w.spareMu.Lock()
	defer w.spareMu.Unlock()
	best := -1
	for i, b := range w.spare {
		if len(b) >= n && (best < 0 || len(b) < len(w.spare[best])) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	b := w.spare[best]
	last := len(w.spare) - 1
	w.spare[best], w.spare[last] = w.spare[last], nil
	w.spare = w.spare[:last]
	w.spareBytes -= len(b)
	return b
}

// keepSpare puts an ended attempt's receive buffers on the worker's list, as
// many as fit under spareRecvBytes; the others are left to the collector.
func (w *Worker) keepSpare(bufs [][]byte) {
	w.spareMu.Lock()
	defer w.spareMu.Unlock()
	for _, b := range bufs {
		if scribbleSpare {
			for i := range b {
				b[i] = 0xee
			}
		}
		if w.spareBytes+len(b) <= spareRecvBytes {
			w.spare = append(w.spare, b)
			w.spareBytes += len(b)
		}
	}
	w.winst.spareBytes.Store(int64(w.spareBytes))
}

// handleConn performs the handshake and runs the connection's read loop until
// the connection drops: a control connection serves the coordinator; a link a
// peer dialled is routed a frame at a time to the attempts its frames name.
func (w *Worker) handleConn(conn net.Conn) {
	defer conn.Close()
	if !w.track(conn) {
		return
	}
	defer w.untrack(conn)
	br := bufio.NewReaderSize(conn, 64<<10)
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	typ, payload, err := readFrame(br, nil)
	if err != nil || typ != frameHello {
		return
	}
	var h hello
	if err := json.Unmarshal(payload, &h); err != nil {
		return
	}
	if h.Magic != protoMagic || h.Version != protoVersion {
		// Version skew must be a loud, structured refusal — two incompatible
		// builds exchanging frames would corrupt results silently.
		writeJSONFrame(conn, frameReject, reject{
			Reason: fmt.Sprintf("protocol mismatch: want magic %08x version %d, got %08x version %d",
				protoMagic, protoVersion, h.Magic, h.Version),
		})
		return
	}
	conn.SetReadDeadline(time.Time{})
	if err := writeJSONFrame(conn, frameWelcome, welcome{Magic: protoMagic, Version: protoVersion, Node: w.node}); err != nil {
		return
	}
	switch h.Role {
	case roleControl:
		w.serveControl(conn, br)
	case rolePeer:
		w.route(h.Node, br)
	}
}

// route is the read loop of a link peer node dialled: every frame goes to the
// attempt its head names (routeFrame) until the link drops or carries anything
// but a data frame, and that is the peer's loss (linkLost).
func (w *Worker) route(node string, br *bufio.Reader) {
	for {
		if err := w.routeFrame(br); err != nil {
			w.linkLost(node, nil, err)
			return
		}
	}
}

// routeFrame reads the next frame of a link a peer dialled. Its head is read
// first, in place (peekData), and names the attempt: one this worker runs, or
// one whose job frame has yet to come (runtime). Then its body is read into
// that attempt's receive arena (DESIGN decision 38) and, once it matches its
// checksum, filed in the attempt's mailbox. The frame of an attempt that has
// failed is skipped unread.
func (w *Worker) routeFrame(br *bufio.Reader) error {
	f, n, err := peekData(br)
	if err != nil {
		return err
	}
	rt := w.runtime(jobKey{job: f.JobID, attempt: f.Attempt}, nil)
	if rt.failure() != nil {
		if _, err := br.Discard(4 + n); err != nil { // the length and what it counts
			return fmt.Errorf("cluster: torn frame (want %d bytes): %w", n, err)
		}
		return nil
	}
	_, payload, err := readFrame(br, rt)
	if err != nil {
		return err
	}
	defer rt.readEnded()
	c := field.Reader(payload)
	f.layout(&c)
	body, err := checkedBody(&c)
	if err != nil {
		return err
	}
	rt.mu.Lock()
	rt.inbox[mailKey{seq: f.Seq, kind: f.Kind, from: f.From}] = body
	rt.cond.Broadcast()
	rt.mu.Unlock()
	return nil
}

// linkLost is the drop of a link to or from peer node - a read error on one it
// dialled, a write error on this worker's (out, the link's sender; nil for the
// former) - which is that peer's loss to every attempt this worker runs: each
// records it (failPeer), and one whose roster names the node fails on it where
// it needs the peer. The worker's link to the node goes down with it, so the
// next job that names the node dials it again.
func (w *Worker) linkLost(node string, out *sender, cause error) {
	w.mu.Lock()
	rts := make([]*jobRuntime, 0, len(w.jobs))
	for _, rt := range w.jobs {
		rts = append(rts, rt)
	}
	l := w.links[node]
	down := l != nil && l.send != nil && (out == nil || l.send == out) // not a dial that runs, nor a newer link
	if down {
		delete(w.links, node)
	}
	w.mu.Unlock()
	if down {
		l.send.abort()
	}
	for _, rt := range rts {
		rt.failPeer(node, cause)
	}
}

// peerLink is this worker's link to one peer node, at addr. The worker dials
// it the first time a job names the peer, and again only once it has dropped
// (linkLost) or the peer has moved, and every job's frames to the peer share
// it, one way: the peer's frames come on the link it dialled. ready is closed
// once the dial has ended, with send set or err the dial's error; both are
// written under the worker's mu.
type peerLink struct {
	addr  string
	ready chan struct{}
	send  *sender
	err   error
}

// link returns the sender of the worker's link to peer p, dialling the link
// when no job has named the peer yet or it has dropped. Concurrent first jobs
// share one dial.
func (w *Worker) link(p procSpec) (*sender, error) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil, net.ErrClosed
	}
	l := w.links[p.Node]
	dial := l == nil || l.addr != p.Addr
	if l != nil && dial {
		w.moved = append(w.moved, l)
	}
	if dial {
		l = &peerLink{addr: p.Addr, ready: make(chan struct{})}
		w.links[p.Node] = l
	}
	w.mu.Unlock()
	if dial {
		w.dial(p.Node, l)
	}
	<-l.ready
	return l.send, l.err
}

// dial opens link l to node: a hello that names this worker's node and
// nothing else, and a sender whose every write must end within
// heartbeatTimeout, so that a peer which stops reading is lost instead of
// holding the link's writer, and every collective behind it, for ever. A link
// that could not be dialled is forgotten once its waiters have its error.
func (w *Worker) dial(node string, l *peerLink) {
	conn, _, _, err := dialHello(l.addr, hello{Magic: protoMagic, Version: protoVersion, Role: rolePeer, Node: w.node})
	w.mu.Lock()
	if err == nil && w.closed {
		err = net.ErrClosed
	} else if err == nil {
		l.send = newSender(stallConn{conn})
	}
	if l.err = err; err != nil && w.links[node] == l {
		delete(w.links, node)
	}
	close(l.ready)
	w.mu.Unlock()
	if err != nil && conn != nil {
		conn.Close()
	}
}

// stallConn is a link's connection as its sender writes it: a write that has
// not ended heartbeatTimeout after it began fails, and the link with it.
type stallConn struct{ net.Conn }

func (c stallConn) Write(p []byte) (int, error) {
	c.SetWriteDeadline(time.Now().Add(heartbeatTimeout))
	return c.Conn.Write(p)
}

// serveControl is the coordinator-facing loop: statistics arrive, jobs start,
// aborts land, pings answer - behind a registry snapshot when a job has
// finished since the connection's last one, which it was sent as soon as it
// was up. When the connection drops every attempt it claimed and is still
// running fails - an orphaned worker must not keep executing for a
// coordinator that cannot hear the answer. A job or abort frame that does not
// decode, or a frame of a type the coordinator does not send here, drops the
// connection too: the coordinator would wait for a done report that never
// comes, and the pongs would keep telling it the worker is alive. A finished
// attempt has left w.jobs, so the connection keeps nothing per job: it keeps
// one statistics snapshot, the last it delivered, and a job takes it when its
// frame is read, in the order the frames came (DESIGN decision 36).
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
	var slot *snapshot
	// shipped is w.finished as of the last registry snapshot sent here.
	shipped := w.finished.Load()
	w.shipRegistry(send)
	for {
		typ, payload, err := readFrame(br, nil)
		if err != nil {
			return
		}
		switch typ {
		case framePing:
			if n := w.finished.Load(); n != shipped {
				shipped = n
				w.shipRegistry(send)
			}
			send.send(framePong, nil, nil)
		case frameStats:
			slot = w.receiveStats(payload)
		case frameJob:
			var spec jobSpec
			if err := json.Unmarshal(payload, &spec); err != nil {
				w.undecodable("job", err)
				return
			}
			snap := slot.named(spec.Snapshot)
			rt := w.runtime(jobKey{job: spec.JobID, attempt: spec.Attempt}, send)
			w.wg.Add(1)
			go func() {
				defer w.wg.Done()
				w.runJob(&spec, snap, rt, send)
			}()
		case frameAbort:
			var a abortMsg
			if err := json.Unmarshal(payload, &a); err != nil {
				w.undecodable("abort", err)
				return
			}
			w.mu.Lock()
			rt := w.jobs[jobKey{job: a.JobID, attempt: a.Attempt}]
			w.mu.Unlock()
			if rt != nil {
				rt.fail(errAborted)
			}
		default:
			w.undecodable(fmt.Sprintf("type %d", typ), errors.New("cluster: not a control frame"))
			return
		}
	}
}

// undecodable logs the control frame that drops its connection.
func (w *Worker) undecodable(what string, err error) {
	if w.logger != nil {
		w.logger.Error("cluster: dropping the control connection: a frame does not decode", "frame", what, "err", err)
	}
}

// shipRegistry sends the worker's registry snapshot in a bundle headed by job
// 0, if the worker has a registry.
func (w *Worker) shipRegistry(ctrl *sender) {
	if w.metrics == nil {
		return
	}
	snap := w.metrics.Snapshot()
	head := attemptHead{}
	if w.ship(ctrl, head.bytes(), &telemetryBundle{Node: w.node, Metrics: &snap}) {
		w.winst.snapshots.Inc()
	}
}

// snapshot is a statistics snapshot as a control connection delivered it: the
// coordinator's id for it, the worker's own number for it (Worker.snapshots)
// and the statistics. err, when set, fails every job that names it.
type snapshot struct {
	id    uint64
	local uint64
	stats *stats.GraphStatistics
	err   error
}

// receiveStats decodes a statistics frame: the connection's next snapshot. One
// that does not describe this worker's graph - its vertex or edge count is not
// the store's - fails every job that names it. A worker started on another
// dataset than the coordinator's would plan what the coordinator planned, on
// the coordinator's numbers, and return wrong rows.
func (w *Worker) receiveStats(payload []byte) *snapshot {
	var msg statsMsg
	err := json.Unmarshal(payload, &msg)
	snap := &snapshot{id: msg.ID, local: w.snapshots.Add(1), stats: msg.Stats}
	switch {
	case err != nil:
		snap.err = fmt.Errorf("cluster: statistics snapshot %d does not decode: %w", msg.ID, err)
	case msg.Stats == nil:
		snap.err = fmt.Errorf("cluster: statistics snapshot %d carries no statistics", msg.ID)
	case msg.Stats.VertexCount != int64(len(w.data.Vertices)) || msg.Stats.EdgeCount != int64(len(w.data.Edges)):
		snap.err = fmt.Errorf("cluster: statistics snapshot %d describes %d vertices and %d edges, this worker's graph has %d and %d: it serves another dataset than the coordinator",
			msg.ID, msg.Stats.VertexCount, msg.Stats.EdgeCount, len(w.data.Vertices), len(w.data.Edges))
	}
	return snap
}

// named is the snapshot a job that names id runs on: s, the last one its
// connection delivered, if that is the one, and else one that fails the job -
// a worker never plans on other statistics than the job's.
func (s *snapshot) named(id uint64) *snapshot {
	if s != nil && s.id == id {
		return s
	}
	var last uint64
	if s != nil {
		last = s.id
	}
	return &snapshot{id: id, err: fmt.Errorf("cluster: the job names statistics snapshot %d, which its control connection has not delivered (the last it delivered is %d)", id, last)}
}

// runJob executes one shipped job attempt and reports its terminal state in a
// done report. A traced request's winning attempt ships its spans strictly
// before the done report (same ordered sender), so the coordinator never has
// to wait for a bundle after seeing the done. Every other attempt's spans
// have no reader - the coordinator merges the winning attempt's bundles, and
// only for a trace - so they are never copied out and die with the collector:
// the stage table is read from the collector in place.
func (w *Worker) runJob(spec *jobSpec, snap *snapshot, rt *jobRuntime, ctrl *sender) {
	start := time.Now()
	var done jobDone
	defer w.dropRuntime(rt)
	// Workers always trace: the per-stage predicted-vs-actual records the
	// coordinator publishes are derived from the spans. The collector epoch
	// is the attempt start, so every span offset is already rebased.
	col := trace.NewCollector()
	w.winst.jobs.Inc()
	wireOut, metrics, err := w.executeJob(spec, snap, rt, ctrl, col)
	if err != nil {
		w.failed(&done, spec, rt, err)
	} else {
		done.Stages = stageRecords(col, dataflow.DefaultConfig(spec.Workers).Cost(), wireOut)
		done.Metrics = metrics
		if spec.Traced {
			w.shipSpans(spec, ctrl, col.Spans())
		}
	}
	done.ElapsedNs = int64(time.Since(start))
	w.winst.jobTime.ObserveSince(start)
	w.finished.Add(1)
	ctrl.send(frameJobDone, spec.head(), []segment{{raw: encodeJobDone(&done)}})
}

// failed fills the done report of an attempt that ended in err. It touches
// neither the collector nor the telemetry plane and allocates nothing unless
// a peer was lost or a logger is set (BenchmarkWorkerTelemetryDisabled).
func (w *Worker) failed(done *jobDone, spec *jobSpec, rt *jobRuntime, err error) {
	done.Error = err.Error()
	done.LostPeers = rt.lostPeers(err, spec.Procs)
	w.winst.failures.Inc()
	if w.logger != nil {
		w.logger.Error("cluster job failed", "job", spec.JobID, "attempt", spec.Attempt,
			"trace", spec.TraceID, "err", err)
	}
}

// maxShippedSpans caps the spans one bundle carries: the newest ones of an
// attempt that ran more stages than that.
const maxShippedSpans = 512

// shipSpans sends a traced request's winning attempt's spans.
func (w *Worker) shipSpans(spec *jobSpec, ctrl *sender, spans []trace.Span) {
	if len(spans) > maxShippedSpans {
		spans = spans[len(spans)-maxShippedSpans:]
	}
	if w.ship(ctrl, spec.head(), &telemetryBundle{Node: w.node, TraceID: spec.TraceID, Spans: spans}) {
		w.winst.shipped.Inc()
	}
}

// ship encodes a bundle and queues it under head, and reports whether it was
// queued: a control connection that is gone takes no bundle, and its done
// report, if any, fails too.
func (w *Worker) ship(ctrl *sender, head []byte, b *telemetryBundle) bool {
	body := encodeTelemetryBundle(b)
	if _, err := ctrl.send(frameTelemetry, head, []segment{{raw: body}}); err != nil {
		return false
	}
	w.winst.teleBytes.Add(int64(len(head) + len(body) + crcTrailer))
	return true
}

// executeJob takes the worker's links to the attempt's peers, runs the
// planned query over this worker's owned partitions, and ships the owned
// result partitions. It returns the bytes the transport framed per stage and
// the job's metrics.
func (w *Worker) executeJob(spec *jobSpec, snap *snapshot, rt *jobRuntime, ctrl *sender, col *trace.Collector) (map[int64]int64, dataflow.MetricsSnapshot, error) {
	var zero dataflow.MetricsSnapshot
	if spec.Workers <= 0 || len(spec.Owner) != spec.Workers || spec.Self < 0 || spec.Self >= len(spec.Procs) {
		return nil, zero, fmt.Errorf("cluster: malformed job spec (workers=%d owners=%d self=%d procs=%d)",
			spec.Workers, len(spec.Owner), spec.Self, len(spec.Procs))
	}
	pt, err := w.transport(spec, rt)
	if err != nil {
		return nil, zero, err
	}
	run, err := w.bindJob(spec, snap, pt, col)
	if err != nil {
		return nil, zero, err
	}
	res, err := run.prep.Execute(run.g, run.cfg)
	if err != nil {
		return nil, zero, err
	}
	if err := shipResults(spec, res.Embeddings, ctrl); err != nil {
		return nil, zero, err
	}
	return run.pt.wireOut, run.env.Metrics(), nil
}

// jobRun is an attempt ready to run: its plan, and the environment, graph and
// configuration a run of it reads.
type jobRun struct {
	prep *core.Prepared
	env  *dataflow.Env
	pt   *peerTransport
	g    *epgm.LogicalGraph
	cfg  core.Config
}

// bindJob is what an attempt does between its links and its run: it decodes
// the parameters, takes the plan from the worker's cache and holds it to the
// coordinator's fingerprint, and binds this worker's graph to a fresh
// environment over the attempt's transport pt.
func (w *Worker) bindJob(spec *jobSpec, snap *snapshot, pt *peerTransport, col *trace.Collector) (jobRun, error) {
	run := jobRun{pt: pt}
	params, err := wire.ReadParams(spec.Params)
	if err != nil {
		return run, fmt.Errorf("cluster: corrupt parameter encoding: %w", err)
	}
	if run.prep, err = w.plan(spec, snap); err != nil {
		return run, err
	}
	if fp := run.prep.Fingerprint(); fp != spec.Fingerprint {
		// Divergent plans would deadlock or silently mis-shuffle; refuse hard.
		return run, fmt.Errorf("cluster: plan fingerprint mismatch (coordinator %s, worker %s) — version or statistics skew",
			spec.Fingerprint, fp)
	}
	run.env = dataflow.NewEnv(dataflow.DefaultConfig(spec.Workers))
	run.env.SetTransport(pt)
	run.env.SetObserver(w.observer)
	var access planner.GraphAccess
	run.g, access = w.data.Bind(run.env)
	run.cfg = core.Config{
		Vertex:  operators.Semantics(spec.Vertex),
		Edge:    operators.Semantics(spec.Edge),
		Params:  params,
		Stats:   snap.stats,
		Access:  access,
		Trace:   col,
		Timeout: time.Duration(spec.TimeoutNs),
	}
	return run, nil
}

// plan returns the plan of the job's query on the statistics snap from the
// worker's cache, planning it on a miss: a worker plans a query once per
// snapshot, semantics and P. The plan is made for the worker's store - whose
// result reads vertex properties from it, as the coordinator's does - bound
// to no environment, and with no tracer, so a cached plan holds no attempt's
// environment, index or spans.
func (w *Worker) plan(spec *jobSpec, snap *snapshot) (*core.Prepared, error) {
	if snap.err != nil {
		return nil, snap.err
	}
	prep, built, err := w.plans.Prepare(planKey(spec, snap), func() (*core.Prepared, error) {
		return core.PrepareWith(snap.stats, spec.Query, core.Config{
			Vertex: operators.Semantics(spec.Vertex),
			Edge:   operators.Semantics(spec.Edge),
			Access: w.data.Access(),
		})
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: worker planning failed: %w", err)
	}
	if built {
		w.winst.plansBuilt.Inc()
	} else {
		w.winst.plansReused.Inc()
	}
	return prep, nil
}

// planKey is a job's key in the worker's plan cache: the worker's number for
// the snapshot, the semantics, P and the query.
func planKey(spec *jobSpec, snap *snapshot) string {
	var buf [64]byte
	b := strconv.AppendUint(buf[:0], snap.local, 10)
	for _, n := range [...]int{spec.Vertex, spec.Edge, spec.Workers} {
		b = strconv.AppendInt(append(b, ' '), int64(n), 10)
	}
	return string(append(append(b, 0), spec.Query...))
}

// shipResults sends the attempt's result to the coordinator as a gather: one
// result frame whose body is gatherBody over the partitions this worker owns -
// empty when it owns none - and returns once the frame has been written into
// the connection's buffer, since, like a collective's, it is written from the
// rows (DESIGN decision 34). A result over maxFrame, which the coordinator
// would take for a lost member, is never queued: the attempt fails with
// errFrameTooLarge.
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
	head, body := spec.head(), gatherBody(spec.Owner, spec.Self, blobs)
	if err := fits(wireSize(head, body)); err != nil {
		return err
	}
	seq, err := ctrl.send(frameResult, head, body)
	if err == nil {
		err = ctrl.wait(seq)
	}
	if err != nil {
		return fmt.Errorf("cluster: shipping results: %w", err)
	}
	return nil
}

// mailKey addresses one peer's contribution to one collective.
type mailKey struct {
	seq  uint64
	kind byte
	from int
}

// jobRuntime is the per-attempt state shared between the job's driving
// goroutine (which executes the dataflow program and blocks in collectives)
// and the routers of the worker's inbound links (which deliver incoming
// frames): a mailbox keyed by (seq, kind, sender) plus the attempt's failure
// state. Any failure — peer loss, abort, worker crash — wakes every waiter, so
// a collective can error out but never hang.
type jobRuntime struct {
	w   *Worker
	key jobKey
	// ctrl is the sender of the control connection whose job frame claimed
	// the attempt, nil until one has (under w.mu): the connection whose loss
	// fails it.
	ctrl *sender

	mu    sync.Mutex
	cond  *sync.Cond
	inbox map[mailKey][]byte
	err   error
	// lost marks, by node, the peers whose link dropped while the attempt ran,
	// with the observed cause (linkLost). A link outlives its jobs, so a drop
	// is a lost peer and nothing else. It is still not a whole-attempt
	// failure: only a collective that needs the lost peer's data fails, and
	// the frames it delivered before the drop stay consumable.
	lost map[string]error

	// The receive arena: the peer frames of the attempt are read into
	// buffers taken from the worker's spare list or the heap (held, whole),
	// carved a body at a time - free is what is left of the buffer carved
	// last. fromSpare and fromHeap are the bytes of the buffers taken from
	// each. reading counts the frames being read into the arena or checked;
	// once the attempt is released and none is, the buffers go back to the
	// worker (reclaim).
	free                []byte
	held                [][]byte
	fromSpare, fromHeap int64
	reading             int
	released            bool
}

func newJobRuntime(w *Worker, key jobKey) *jobRuntime {
	rt := &jobRuntime{
		w:     w,
		key:   key,
		inbox: map[mailKey][]byte{},
		lost:  map[string]error{},
	}
	rt.cond = sync.NewCond(&rt.mu)
	return rt
}

// frameBody is where readFrame reads the body of a peer frame of n bytes, and
// begins a read: a body carved from the attempt's receive arena. A body
// smaller than recvChunk is carved from what is left of the buffer carved
// last, or from a new chunk; a larger one gets a buffer of its own, unless
// what is left holds it. A new buffer is the
// smallest spare one that is large enough, or a heap allocation. A body is
// clipped to its length, so nothing appends into the next. Once the attempt
// has been released, a body is a heap allocation of its own that nothing
// reuses.
func (rt *jobRuntime) frameBody(n int) []byte {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.reading++
	if rt.released {
		rt.w.winst.recvHeap.Add(int64(n))
		return make([]byte, n)
	}
	if n > len(rt.free) {
		size := max(n, recvChunk)
		buf := rt.w.takeSpare(size)
		if buf == nil {
			buf = make([]byte, size)
			rt.fromHeap += int64(size)
		} else {
			rt.fromSpare += int64(len(buf))
		}
		rt.held = append(rt.held, buf)
		if len(buf)-n <= len(rt.free) {
			return buf[:n:n] // what is left of the last buffer is the larger
		}
		rt.free = buf
	}
	body := rt.free[:n:n]
	rt.free = rt.free[n:]
	return body
}

// readEnded ends a read frameBody began: the frame's reader is done with it.
func (rt *jobRuntime) readEnded() {
	rt.mu.Lock()
	rt.reading--
	rt.reclaim()
	rt.mu.Unlock()
}

// release ends the attempt's hold on its receive arena: nothing of the job
// reads a row of it any more. Its buffers go back to the worker now, or when
// the last frame being read lands.
func (rt *jobRuntime) release() {
	rt.mu.Lock()
	rt.released = true
	rt.reclaim()
	rt.mu.Unlock()
}

// reclaim gives the arena's buffers to the worker, and counts them, once the
// attempt has been released and no frame is being read into them. Under mu.
func (rt *jobRuntime) reclaim() {
	if !rt.released || rt.reading > 0 || rt.held == nil {
		return
	}
	rt.w.keepSpare(rt.held)
	rt.w.winst.recvSpare.Add(rt.fromSpare)
	rt.w.winst.recvHeap.Add(rt.fromHeap)
	rt.held, rt.free = nil, nil
}

// waitMail blocks until the addressed contribution of peer node arrives, the
// peer is lost with the mail still owed, or the attempt fails. The inbox check
// comes first: frames a peer delivered before its link dropped stay
// consumable.
func (rt *jobRuntime) waitMail(key mailKey, node string) ([]byte, error) {
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
		if cause := rt.lost[node]; cause != nil {
			return nil, fmt.Errorf("%w: peer %d (%s) dropped owing collective %d: %v",
				ErrPeerLost, key.from, node, key.seq, cause)
		}
		rt.cond.Wait()
	}
}

// fail records the attempt's first failure and wakes every waiter. The links
// are the worker's and carry on: a collective waiting for its frames to be
// written returns once they are, or once their link drops.
func (rt *jobRuntime) fail(err error) {
	rt.mu.Lock()
	if rt.err == nil {
		rt.err = err
	}
	rt.cond.Broadcast()
	rt.mu.Unlock()
}

// failure is the attempt's failure, nil while it runs.
func (rt *jobRuntime) failure() error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.err
}

// failPeer records the loss of peer node and wakes waiters; blame lands
// lazily on whichever collective actually needs the peer (see the lost
// field's doc).
func (rt *jobRuntime) failPeer(node string, cause error) {
	rt.mu.Lock()
	if rt.lost[node] == nil {
		rt.lost[node] = cause
	}
	rt.cond.Broadcast()
	rt.mu.Unlock()
}

// lostPeers is, for an attempt that failed on a lost peer, the roster
// indices of procs whose link dropped while the attempt ran: those peers, and
// only those, were lost. Every path that fails an attempt with ErrPeerLost
// records the peer first, so the list is never empty then.
func (rt *jobRuntime) lostPeers(err error, procs []procSpec) []int {
	if !errors.Is(err, ErrPeerLost) {
		return nil
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var idxs []int
	for j, p := range procs {
		if rt.lost[p.Node] != nil {
			idxs = append(idxs, j)
		}
	}
	return idxs
}

// peerTransport implements dataflow.Transport over the worker's links to the
// attempt's peers. All methods run on the job's driving goroutine (the
// engine's contract), so the sequence counter needs no synchronization; each
// collective is matched across processes by that counter, and the mailbox
// holds early arrivals from faster peers.
type peerTransport struct {
	rt   *jobRuntime
	spec *jobSpec
	// out is, by roster index, the link to each peer (none at Self) and the
	// last data frame the attempt queued on it, which a collective waits for
	// before it returns.
	out []peerOut
	seq uint64
	// wireOut attributes the bytes this process actually framed to peers,
	// per stage — the "actual shuffle bytes" side of the predicted-vs-actual
	// report (received bytes are the sending peer's wireOut; counting both
	// sides would double every byte in the cluster-wide sum).
	wireOut map[int64]int64
}

// peerOut is an attempt's use of one link.
type peerOut struct {
	send *sender
	sent uint64
}

// transport is the attempt's peerTransport over the worker's links to the
// other members of its roster, each dialled if no job has named it before or
// its link has dropped. A peer that cannot be dialled is lost.
func (w *Worker) transport(spec *jobSpec, rt *jobRuntime) (*peerTransport, error) {
	pt := &peerTransport{rt: rt, spec: spec, out: make([]peerOut, len(spec.Procs)), wireOut: map[int64]int64{}}
	for j, p := range spec.Procs {
		if j == spec.Self {
			continue
		}
		s, err := w.link(p)
		if err != nil {
			rt.failPeer(p.Node, err)
			return nil, fmt.Errorf("%w: peer %d (%s): %v", ErrPeerLost, j, p.Addr, err)
		}
		pt.out[j].send = s
	}
	return pt, nil
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
// body(j) its body - a frame its peer would refuse as over maxFrame is never
// queued, and fails the collective with errFrameTooLarge, not as a lost peer -
// and waits until each has been written into its
// link's buffer or dropped with it: a collective returns only then,
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
	for j := range t.out {
		if j == t.spec.Self {
			continue
		}
		b := body(j)
		size := wireSize(head, b)
		if err = fits(size); err != nil {
			break
		}
		t.wireOut[stage] += size
		seq, serr := t.out[j].send.send(frameData, head, b)
		if serr != nil {
			err = t.lost(j, serr)
			break
		}
		t.out[j].sent = seq
	}
	for j := range t.out {
		if j == t.spec.Self {
			continue
		}
		if werr := t.out[j].send.wait(t.out[j].sent); werr != nil && err == nil {
			err = t.lost(j, werr)
		}
	}
	if err != nil {
		return err
	}
	for j := range t.out {
		if j == t.spec.Self {
			continue
		}
		b, err := t.rt.waitMail(mailKey{seq: t.seq, kind: kind, from: j}, t.spec.Procs[j].Node)
		if err != nil {
			return err
		}
		if err := split(j, b); err != nil {
			return err
		}
	}
	return nil
}

// lost is a write error on the link to peer j: the link has dropped, which is
// the peer's loss to every attempt (linkLost) and this attempt's error -
// unless the attempt has failed already, an abort say, and then that failure
// is its error.
func (t *peerTransport) lost(j int, cause error) error {
	p := t.spec.Procs[j]
	t.rt.w.linkLost(p.Node, t.out[j].send, cause)
	if err := t.rt.failure(); err != nil {
		return err
	}
	return fmt.Errorf("%w: sending to peer %d (%s): %v", ErrPeerLost, j, p.Node, cause)
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
// trace, read in place: prediction is the cost model's SimTime over the
// stage's owned per-partition charges, actual is the stage's measured wall
// clock, model bytes are the charged cross-partition bytes, wire bytes what
// the transport framed.
func stageRecords(col *trace.Collector, cost trace.CostModel, wireOut map[int64]int64) []session.ClusterStage {
	recs := make([]session.ClusterStage, 0, col.Len())
	col.Walk(func(s *trace.Span) {
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
	})
	return recs
}
