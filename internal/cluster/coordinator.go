package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"net"
	"slices"
	"sort"
	"sync"
	"time"

	"gradoop/internal/core"
	"gradoop/internal/dataflow"
	"gradoop/internal/embedding"
	"gradoop/internal/epgm"
	"gradoop/internal/obs"
	"gradoop/internal/session"
	"gradoop/internal/stats"
	"gradoop/internal/trace"
	"gradoop/internal/wire"
)

// Options configures a Coordinator.
type Options struct {
	// Workers is the logical partition count P. It must equal the session's
	// worker count: the coordinator's plan and every worker's plan are the
	// same deterministic function of (query, stats, P).
	Workers int
	// Partitioner assigns partitions to live workers (default rendezvous).
	Partitioner Partitioner
	// Metrics registers the gradoop_cluster_* instruments (nil disables).
	Metrics *obs.Registry
	// Logger records roster changes and recoveries (nil disables).
	Logger *slog.Logger
}

// The heartbeat pings every live worker each heartbeatInterval and drops one
// that has been silent for heartbeatTimeout: it catches wedged-but-open
// connections, and a dropped connection is seen at once.
const (
	heartbeatInterval = 500 * time.Millisecond
	heartbeatTimeout  = 2 * time.Second
)

// Coordinator fronts a set of worker processes and implements
// session.RemoteExecutor: it plans once on the session's pinned statistics,
// ships the job to every live worker, drives recovery when workers die and
// assembles the final result. The session in front of it keeps providing
// the plan cache, result cache, admission control and query store — only
// the dataflow execution moves out of process.
type Coordinator struct {
	opts Options
	part Partitioner
	inst *clusterInstruments
	// members is the roster as dialled, fixed once NewCoordinator returns: a
	// lost member stays in it, marked dead.
	members []*member

	mu      sync.Mutex
	pending map[jobKey]*attemptState
	// jobSeq is the last job's id. It starts at a random 64-bit base: a
	// worker keys its runtimes and aborts by job and attempt alone, so two
	// coordinators sharing a worker must not both number their jobs from 1,
	// or a late abort or data frame of one's job lands on the other's.
	jobSeq uint64
	closed bool

	stopHB chan struct{}
	// wg joins every goroutine the coordinator spawned — the per-member
	// read loops and the heartbeat — so Close returns only after all of
	// them have exited. Their exits are driven, not awaited hopefully:
	// Close closes stopHB (heartbeat) and aborts every member's sender,
	// which closes the underlying connections (read loops).
	wg sync.WaitGroup
}

// member is one worker process as the coordinator sees it.
type member struct {
	idx  int
	node string
	addr string
	conn net.Conn
	send *sender

	mu       sync.Mutex
	alive    bool
	lastPong time.Time
	jobsDone int64
	// snap is the worker's most recent metrics-registry snapshot, carried by
	// the last pong that brought one - at most one heartbeatInterval after a
	// job ended; the federated /metrics view serves it.
	snap *obs.Snapshot
	// stats is the statistics snapshot last queued on the control connection,
	// under the id statsID (ship).
	stats   *stats.GraphStatistics
	statsID uint64
}

// ship queues a job frame for the member, behind a statistics frame when st is
// not the snapshot the connection was last sent, and names in the spec the id
// st goes by on this connection. Both frames are queued under the member's
// lock, so no job frame overtakes the snapshot it names - not even one of two
// concurrent first jobs - and a graph swap re-ships the snapshot once.
func (m *member) ship(spec *jobSpec, st *stats.GraphStatistics) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stats != st {
		m.statsID++
		if err := m.send.sendJSON(frameStats, statsMsg{ID: m.statsID, Stats: st}); err != nil {
			return err
		}
		m.stats = st
	}
	spec.Snapshot = m.statsID
	_, err := m.send.send(frameJob, encodeJobSpec(spec), nil)
	return err
}

var _ session.RemoteExecutor = (*Coordinator)(nil)

// NewCoordinator dials the worker addresses and verifies the protocol
// handshake with each. All workers must be reachable at startup; losses
// after that are handled by recovery.
func NewCoordinator(addrs []string, opts Options) (*Coordinator, error) {
	if len(addrs) == 0 {
		return nil, errors.New("cluster: no worker addresses")
	}
	if opts.Workers <= 0 {
		return nil, errors.New("cluster: Options.Workers must be positive")
	}
	if opts.Partitioner == nil {
		opts.Partitioner = RendezvousPartitioner{}
	}
	c := &Coordinator{
		opts:    opts,
		part:    opts.Partitioner,
		inst:    newClusterInstruments(opts.Metrics),
		pending: map[jobKey]*attemptState{},
		jobSeq:  rand.Uint64(),
		stopHB:  make(chan struct{}),
	}
	now := time.Now()
	for i, addr := range addrs {
		conn, br, wl, err := dialHello(addr, hello{Magic: protoMagic, Version: protoVersion, Role: roleControl})
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("cluster: worker %d (%s): %w", i, addr, err)
		}
		m := &member{idx: i, node: wl.Node, addr: addr, conn: conn, send: newSender(conn), alive: true, lastPong: now}
		c.members = append(c.members, m)
		// A node is a worker's identity: the partitioner places by it, and a
		// worker tells its peers' links apart by it.
		if j := slices.IndexFunc(c.members[:i], func(o *member) bool { return o.node == m.node }); j >= 0 {
			c.Close()
			return nil, fmt.Errorf("cluster: workers %d (%s) and %d (%s) both report node %q", j, addrs[j], i, addr, m.node)
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.readMember(m, br)
		}()
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.heartbeat()
	}()
	c.inst.bindRoster(c)
	return c, nil
}

// Close tears the coordinator down and waits for its goroutines (the
// heartbeat and every member read loop) to exit. Idempotent; later calls
// return once the first teardown has finished.
func (c *Coordinator) Close() {
	c.mu.Lock()
	alreadyClosed := c.closed
	c.closed = true
	c.mu.Unlock()
	if !alreadyClosed {
		close(c.stopHB)
		for _, m := range c.members {
			m.send.abort()
		}
	}
	c.wg.Wait()
}

// LiveWorkers reports the currently live roster size.
func (c *Coordinator) LiveWorkers() int { return len(c.liveRoster()) }

var _ session.ClusterIntrospector = (*Coordinator)(nil)

// ClusterWorkers reports the roster for the /cluster/workers endpoint:
// node, address, liveness, heartbeat age and per-worker job counts.
func (c *Coordinator) ClusterWorkers() []session.WorkerInfo {
	infos := make([]session.WorkerInfo, 0, len(c.members))
	for _, m := range c.members {
		m.mu.Lock()
		infos = append(infos, session.WorkerInfo{
			Node:            m.node,
			Addr:            m.addr,
			Alive:           m.alive,
			LastHeartbeatMs: time.Since(m.lastPong).Milliseconds(),
			Jobs:            m.jobsDone,
		})
		m.mu.Unlock()
	}
	return infos
}

// WorkerMetrics returns each worker's most recent registry snapshot (as
// carried by the latest pong that brought one) for the federated
// /metrics view. Workers that have never shipped one are omitted.
func (c *Coordinator) WorkerMetrics() []session.WorkerMetrics {
	var out []session.WorkerMetrics
	for _, m := range c.members {
		m.mu.Lock()
		if m.snap != nil {
			out = append(out, session.WorkerMetrics{Node: m.node, Snap: m.snap})
		}
		m.mu.Unlock()
	}
	return out
}

func (m *member) isAlive() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.alive
}

func (m *member) markPong() {
	m.mu.Lock()
	m.lastPong = time.Now()
	m.mu.Unlock()
}

// readMember is the control connection's read loop: done reports route to
// the attempt they belong to, pongs feed the heartbeat and, with the registry
// snapshot behind one, the federated /metrics. A read error, a done report
// that does not decode, or a frame of a type a worker does not send here is
// the definitive death signal for the member.
func (c *Coordinator) readMember(m *member, br *bufio.Reader) {
	for {
		typ, payload, err := readFrame(br, nil)
		if err != nil {
			c.memberDown(m, err)
			return
		}
		switch typ {
		case framePong:
			m.markPong()
			c.receiveSnapshot(m, payload)
		case frameJobDone:
			body, err := sealedBody(payload)
			var done *jobDone
			if err == nil {
				done, err = decodeJobDone(body)
			}
			if err != nil {
				c.memberDown(m, err)
				return
			}
			m.mu.Lock()
			m.jobsDone++
			m.mu.Unlock()
			if st := c.attempt(jobKey{job: done.JobID, attempt: done.Attempt}); st != nil {
				st.deliverDone(m.idx, done)
			}
		default:
			c.memberDown(m, fmt.Errorf("cluster: a frame of type %d on a control connection", typ))
			return
		}
	}
}

// receiveSnapshot keeps the registry snapshot a pong carries, if it carries
// one. The snapshot degrades, never fails: one that fails its checksum or does
// not decode is counted and skipped, and the pong still counts toward the
// member's liveness (DESIGN decision 18).
func (c *Coordinator) receiveSnapshot(m *member, payload []byte) {
	body, err := sealedBody(payload)
	if err == nil && len(body) == 0 {
		return
	}
	var snap *obs.Snapshot
	if err == nil {
		snap, err = decodeSnapshot(body)
	}
	if err != nil {
		c.inst.teleDropped.Inc()
		if c.opts.Logger != nil {
			c.opts.Logger.Warn("dropping a corrupt registry snapshot", "node", m.node, "err", err)
		}
		return
	}
	c.inst.teleFrames.Inc()
	c.inst.teleBytes.Add(int64(len(payload)))
	m.mu.Lock()
	m.snap = snap
	m.mu.Unlock()
}

// memberDown marks a member dead, closes its connection and wakes every
// attempt it participates in.
func (c *Coordinator) memberDown(m *member, cause error) {
	m.mu.Lock()
	wasAlive := m.alive
	m.alive = false
	m.mu.Unlock()
	if !wasAlive {
		return
	}
	m.send.abort()
	c.inst.losses.Inc()
	if c.opts.Logger != nil {
		c.opts.Logger.Warn("cluster worker lost", "node", m.node, "addr", m.addr, "err", cause)
	}
	c.mu.Lock()
	attempts := make([]*attemptState, 0, len(c.pending))
	for _, st := range c.pending {
		attempts = append(attempts, st)
	}
	c.mu.Unlock()
	for _, st := range attempts {
		st.memberDown(m.idx)
	}
}

func (c *Coordinator) attempt(key jobKey) *attemptState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pending[key]
}

// heartbeat pings live members and expires the silent ones.
func (c *Coordinator) heartbeat() {
	ticker := time.NewTicker(heartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stopHB:
			return
		case <-ticker.C:
		}
		for _, m := range c.members {
			if !m.isAlive() {
				continue
			}
			m.mu.Lock()
			silent := time.Since(m.lastPong)
			m.mu.Unlock()
			if silent > heartbeatTimeout {
				c.memberDown(m, fmt.Errorf("heartbeat timeout (%v silent)", silent))
				continue
			}
			m.send.send(framePing, nil, nil)
		}
	}
}

// attemptState tracks one in-flight attempt on the coordinator side.
type attemptState struct {
	key    jobKey
	roster []int // participating member indices, in roster order
	owner  []int // partition -> roster index, as the attempt was launched

	mu    sync.Mutex
	cond  *sync.Cond
	dones map[int]*jobDone // member idx -> its report, its result in it
	down  map[int]bool     // member idx -> died during the attempt
	err   error            // external failure (context cancellation)
}

func newAttemptState(key jobKey, roster, owner []int) *attemptState {
	st := &attemptState{
		key:    key,
		roster: roster,
		owner:  owner,
		dones:  map[int]*jobDone{},
		down:   map[int]bool{},
	}
	st.cond = sync.NewCond(&st.mu)
	return st
}

// file files every roster member's result, the rest of its done report, with
// splitAllGather against the owner map the attempt was launched with, and
// returns the result's buckets in partition order. A body that names a
// partition its sender does not own or names one twice, or a partition no
// body carries, is an error, with the member to blame for it.
func (st *attemptState) file() ([][]byte, int, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	blobs := make([][]byte, len(st.owner))
	for i, idx := range st.roster {
		if err := splitAllGather(st.owner, i, st.dones[idx].Result, blobs); err != nil {
			return nil, idx, err
		}
	}
	for p, b := range blobs {
		if b == nil {
			return nil, st.roster[st.owner[p]], fmt.Errorf("cluster: result partition %d missing", p)
		}
	}
	return blobs, 0, nil
}

func (st *attemptState) deliverDone(memberIdx int, done *jobDone) {
	st.mu.Lock()
	st.dones[memberIdx] = done
	st.cond.Broadcast()
	st.mu.Unlock()
}

func (st *attemptState) memberDown(memberIdx int) {
	st.mu.Lock()
	for _, idx := range st.roster {
		if idx == memberIdx {
			st.down[memberIdx] = true
			st.cond.Broadcast()
			break
		}
	}
	st.mu.Unlock()
}

func (st *attemptState) fail(err error) {
	st.mu.Lock()
	if st.err == nil && err != nil {
		st.err = err
	}
	st.cond.Broadcast()
	st.mu.Unlock()
}

// await blocks until the attempt settles: every roster member has reported
// a terminal state, or one has died or failed - its own error or a lost peer -
// in which case the attempt is already doomed and the caller aborts the
// stragglers: a peer that waits in a collective for a member that has failed
// waits for good, since the link between them outlives the attempt (DESIGN
// decision 39).
func (st *attemptState) await() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	for {
		if st.err != nil {
			return st.err
		}
		if len(st.down) > 0 {
			return nil
		}
		settled := true
		for _, idx := range st.roster {
			done := st.dones[idx]
			if done != nil && done.Error != "" {
				return nil
			}
			if done == nil {
				settled = false
			}
		}
		if settled {
			return nil
		}
		st.cond.Wait()
	}
}

// outcome classifies a settled attempt.
type outcome struct {
	recoverable bool  // worker loss: retry on the survivors
	accused     []int // member indices reported dead by their peers
	queryErr    error // genuine failure: propagate
}

func (st *attemptState) classify() outcome {
	st.mu.Lock()
	defer st.mu.Unlock()
	var out outcome
	accused := map[int]bool{}
	for idx := range st.down {
		accused[idx] = true
	}
	for _, idx := range st.roster {
		done := st.dones[idx]
		if done == nil {
			continue
		}
		// LostPeers are roster-relative; translate to member indices. A peer
		// is named only when its link dropped: a member that fails on its own
		// error keeps its links, and its peers never see it go. A failure
		// that names no peer is the query's.
		named := false
		for _, r := range done.LostPeers {
			if r >= 0 && r < len(st.roster) {
				accused[st.roster[r]] = true
				named = true
			}
		}
		if !named && done.Error != "" && out.queryErr == nil {
			out.queryErr = errors.New(done.Error)
		}
	}
	out.recoverable = len(accused) > 0
	for idx := range accused {
		out.accused = append(out.accused, idx)
	}
	sort.Ints(out.accused)
	return out
}

// ExecuteRemote implements session.RemoteExecutor: ship the prepared query
// to the live roster, recover from worker losses by re-running on a
// remapped partition assignment, and assemble the coordinator-side Result.
func (c *Coordinator) ExecuteRemote(g *epgm.LogicalGraph, prep *core.Prepared, cfg core.Config) (*core.Result, *session.ClusterReport, error) {
	start := time.Now()
	c.inst.jobs.Inc()
	c.mu.Lock()
	c.jobSeq++
	jobID := c.jobSeq
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return nil, nil, errors.New("cluster: coordinator closed")
	}

	// The job's trace identity: the caller's context trace ID when present
	// (so the cluster execution joins the request's existing trace), else a
	// coordinator-minted one. It rides the job spec to every worker, tags
	// their logs, and binds the merged trace document.
	traceID := obs.TraceIDFrom(cfg.Context)
	if traceID == "" {
		traceID = fmt.Sprintf("job-%08x", jobID)
	}

	// The result is the one an in-process execution binds, with the workers'
	// rows in place of a local run's. Bound before any worker is asked, a
	// request that cannot be bound - a $param without a value - fails with the
	// binder's own error, as it does in process.
	res, err := prep.Bind(g, cfg)
	if err != nil {
		return nil, nil, err
	}

	traced := cfg.Trace != nil
	spec := jobSpec{
		JobID:       jobID,
		TraceID:     traceID,
		Traced:      traced,
		Query:       prep.Query,
		Params:      wire.AppendParams(nil, cfg.Params),
		Workers:     c.opts.Workers,
		Vertex:      int(prep.Morph.Vertex),
		Edge:        int(prep.Morph.Edge),
		Fingerprint: prep.Fingerprint(),
		TimeoutNs:   int64(cfg.Timeout),
	}

	ctx := cfg.Context
	if cfg.Timeout > 0 {
		if ctx == nil {
			ctx = context.Background()
		}
		// The workers enforce the query timeout themselves; this outer
		// deadline only catches a cluster that stopped answering entirely.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Timeout+handshakeTimeout)
		defer cancel()
	}

	// coordSpans is the coordinator's own lane of the merged trace, built for
	// a traced request only: one span per attempt plus the assembly, offsets
	// rebased to the job start exactly like the workers rebase theirs.
	var coordSpans []trace.Span
	var lastErr error
	// A job survives all but one worker dying: as many attempts as workers.
	for attempt := 0; attempt < len(c.members); attempt++ {
		roster := c.liveRoster()
		if len(roster) == 0 {
			return nil, nil, fmt.Errorf("cluster: all workers lost (job %d attempt %d)", jobID, attempt)
		}
		attemptStart := time.Since(start)
		st, err := c.launchAttempt(&spec, prep.Stats, attempt, roster)
		if err != nil {
			return nil, nil, err
		}
		var stopWatch func() bool
		if ctx != nil {
			stopWatch = context.AfterFunc(ctx, func() { st.fail(ctx.Err()) })
		}
		err = st.await()
		if stopWatch != nil {
			stopWatch()
		}
		c.mu.Lock()
		delete(c.pending, st.key)
		c.mu.Unlock()
		if traced {
			coordSpans = append(coordSpans, trace.Span{
				Stage: int64(attempt),
				Op:    fmt.Sprintf("attempt %d (%d workers)", attempt, len(roster)),
				Kind:  "attempt", Start: attemptStart, End: time.Since(start),
			})
		}
		if err != nil {
			c.abortAttempt(st)
			return nil, nil, err
		}
		out := st.classify()
		var blobs [][]byte
		if !out.recoverable && out.queryErr == nil {
			var bad int
			if blobs, bad, err = st.file(); err != nil {
				// A result that does not file fails its sender as a corrupt
				// frame does, and the attempt is retried without it.
				c.memberDown(c.members[bad], err)
				out.recoverable, out.accused = true, []int{bad}
			}
		}
		if out.recoverable {
			// Mark every accused member dead by force-closing it: a worker
			// whose sockets break asymmetrically is indistinguishable from a
			// dead one, and the retry must not include it.
			for _, idx := range out.accused {
				c.memberDown(c.members[idx], errors.New("reported lost by peers"))
			}
			c.abortAttempt(st)
			c.inst.recoveries.Inc()
			if c.opts.Logger != nil {
				c.opts.Logger.Warn("cluster attempt lost workers; recovering",
					"job", jobID, "attempt", attempt, "accused", out.accused)
			}
			lastErr = fmt.Errorf("cluster: attempt %d lost workers %v", attempt, out.accused)
			continue
		}
		if out.queryErr != nil {
			c.abortAttempt(st)
			return nil, nil, out.queryErr
		}
		assembleStart := time.Since(start)
		rep, err := c.assemble(res, st, blobs, traced)
		if err != nil {
			return nil, nil, err
		}
		rep.Attempts = attempt + 1
		rep.Recovered = attempt > 0
		rep.TraceID = traceID
		if traced {
			// The caller asked for a trace; merge the winning attempt's
			// spans into one document — coordinator lane plus one process
			// lane per worker, each from its done report.
			coordSpans = append(coordSpans, trace.Span{
				Stage: int64(attempt + 1), Op: "assemble", Kind: "assemble",
				Start: assembleStart, End: time.Since(start),
			})
			lanes := make([]trace.WorkerTrace, len(st.roster))
			st.mu.Lock()
			for i, idx := range st.roster {
				lanes[i] = trace.WorkerTrace{Node: c.members[idx].node, Spans: st.dones[idx].Spans}
			}
			st.mu.Unlock()
			merged := trace.ClusterChromeTrace(traceID, coordSpans, lanes)
			rep.Trace = &merged
		}
		c.inst.observe(rep, time.Since(start))
		return res, rep, nil
	}
	return nil, nil, fmt.Errorf("cluster: job %d exhausted %d attempts: %w", jobID, len(c.members), lastErr)
}

// liveRoster snapshots the live member indices.
func (c *Coordinator) liveRoster() []int {
	var roster []int
	for _, m := range c.members {
		if m.isAlive() {
			roster = append(roster, m.idx)
		}
	}
	return roster
}

// launchAttempt registers the attempt and ships the per-worker specs, which
// plan on the statistics snap.
func (c *Coordinator) launchAttempt(spec *jobSpec, snap *stats.GraphStatistics, attempt int, roster []int) (*attemptState, error) {
	nodes := make([]string, len(roster))
	procs := make([]procSpec, len(roster))
	for i, idx := range roster {
		nodes[i] = c.members[idx].node
		procs[i] = procSpec{Node: c.members[idx].node, Addr: c.members[idx].addr}
	}
	owner := c.part.Assign(spec.Workers, nodes)

	st := newAttemptState(jobKey{job: spec.JobID, attempt: attempt}, roster, owner)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errors.New("cluster: coordinator closed")
	}
	c.pending[st.key] = st
	c.mu.Unlock()
	for i, idx := range roster {
		ws := *spec
		ws.Attempt = attempt
		ws.Owner = owner
		ws.Procs = procs
		ws.Self = i
		if err := c.members[idx].ship(&ws, snap); err != nil {
			// The send failed because the member just died; its absence will
			// settle the attempt as recoverable through memberDown.
			c.memberDown(c.members[idx], err)
		}
	}
	return st, nil
}

// abortAttempt tells the live roster members to stop an attempt.
func (c *Coordinator) abortAttempt(st *attemptState) {
	for _, idx := range st.roster {
		m := c.members[idx]
		if m.isAlive() {
			abort := attemptHead{JobID: st.key.job, Attempt: st.key.attempt}
			m.send.send(frameAbort, abort.bytes(), nil)
		}
	}
}

// assemble decodes the result's buckets, as file returned them, into res, the
// bound Result, as core.Prepared.Execute fills a local run's, and builds the
// report - the workers' stage records, metrics and one WorkerReport each -
// from their done reports alone. traced says whether the request asked for a
// trace, and with it the workers for their spans.
func (c *Coordinator) assemble(res *core.Result, st *attemptState, blobs [][]byte, traced bool) (*session.ClusterReport, error) {
	st.mu.Lock()
	dones := make([]*jobDone, 0, len(st.roster))
	for _, idx := range st.roster {
		dones = append(dones, st.dones[idx])
	}
	st.mu.Unlock()

	// The coordinator owns no partition: the result is the workers' buckets in
	// partition order, every row decoded in place as a view of the frame body
	// it arrived in.
	flat, p, err := dataflow.Concat[embedding.Embedding](nil, blobs, make([]bool, len(blobs)))
	if err != nil {
		return nil, fmt.Errorf("cluster: result partition %d: %w", p, err)
	}
	res.Embeddings = dataflow.FromSlice(res.Env, flat)
	rep := &session.ClusterReport{
		Workers:       len(st.roster),
		Stages:        foldStages(dones),
		WorkerReports: make([]session.WorkerReport, len(dones)),
	}
	for i, done := range dones {
		rep.Metrics.MergeProcess(done.Metrics)
		wr := session.WorkerReport{Node: c.members[st.roster[i]].node, WallNs: done.ElapsedNs, Spans: len(done.Stages)}
		if traced {
			wr.Spans = len(done.Spans)
		}
		rep.WorkerReports[i] = wr
	}
	return rep, nil
}

// foldStages builds the cluster-wide predicted-vs-actual table from the
// roster-ordered done reports, merge and per-worker attribution in one pass.
// Times take the slowest worker (a stage's wall time is its slowest
// participant), bytes sum (each worker reports what it charged and what it
// framed). WorkerNs[i] is worker i's wall time for the stage - its maximum
// is the merged Actual by construction - WorkerBytes[i] its framed shuffle
// bytes, and Skew the straggler factor: the slowest worker's time over the
// roster mean. All of it comes from the stage records, not the spans, so an
// untraced request has the skew table too.
func foldStages(dones []*jobDone) []session.ClusterStage {
	n := 0
	for _, done := range dones {
		n = max(n, len(done.Stages))
	}
	w := len(dones)
	// Every stage's WorkerNs and WorkerBytes are carved from one array.
	cols := make([]int64, 2*w*n)
	out := make([]session.ClusterStage, 0, n)
	for wi, done := range dones {
		for si, s := range done.Stages {
			if si == len(out) { // the first report of a stage names its row
				at := 2 * w * si
				out = append(out, session.ClusterStage{
					Stage: s.Stage, Op: s.Op, Kind: s.Kind, Shuffle: s.Shuffle,
					WorkerNs:    cols[at : at+w : at+w],
					WorkerBytes: cols[at+w : at+2*w : at+2*w],
				})
			}
			m := &out[si]
			m.Predicted = max(m.Predicted, s.Predicted)
			m.Actual = max(m.Actual, s.Actual)
			m.ModelBytes += s.ModelBytes
			m.WireBytes += s.WireBytes
			m.WorkerNs[wi] = s.Actual
			m.WorkerBytes[wi] = s.WireBytes
			m.MeanNs += s.Actual // the sum, until every report is in
		}
	}
	for si := range out {
		m := &out[si]
		m.MeanNs /= int64(w)
		if m.MeanNs > 0 {
			m.Skew = float64(m.Actual) / float64(m.MeanNs)
		}
	}
	return out
}

// clusterInstruments is the coordinator's gradoop_cluster_* surface.
type clusterInstruments struct {
	jobs        *obs.Counter
	recoveries  *obs.Counter
	losses      *obs.Counter
	attempts    *obs.Histogram
	jobTime     *obs.Histogram
	wireBytes   *obs.Counter
	predicted   *obs.Counter
	actual      *obs.Counter
	teleFrames  *obs.Counter
	teleBytes   *obs.Counter
	teleDropped *obs.Counter
}

// newClusterInstruments registers the coordinator's instruments. A nil
// registry yields instruments whose fields are all nil — every obs
// instrument method is nil-safe, so callers never guard.
func newClusterInstruments(r *obs.Registry) *clusterInstruments {
	if r == nil {
		return &clusterInstruments{}
	}
	return &clusterInstruments{
		jobs: r.NewCounter("gradoop_cluster_jobs_total",
			"Distributed queries started"),
		recoveries: r.NewCounter("gradoop_cluster_recoveries_total",
			"Attempts re-run after losing a worker"),
		losses: r.NewCounter("gradoop_cluster_worker_losses_total",
			"Workers marked dead (connection drop, heartbeat, accusation)"),
		attempts: r.NewHistogram("gradoop_cluster_attempts",
			"Attempts per successful distributed query", 1),
		jobTime: r.NewHistogram("gradoop_cluster_job_seconds",
			"End-to-end distributed query time", obs.ScaleNanos),
		wireBytes: r.NewCounter("gradoop_cluster_wire_bytes_total",
			"Shuffle bytes actually framed onto worker-to-worker sockets"),
		predicted: r.NewCounter("gradoop_cluster_stage_predicted_ns_total",
			"Cost-model predicted stage time, summed over stages"),
		actual: r.NewCounter("gradoop_cluster_stage_actual_ns_total",
			"Measured stage wall time, summed over stages"),
		teleFrames: r.NewCounter("gradoop_cluster_telemetry_frames_total",
			"Worker registry snapshots received intact on pongs"),
		teleBytes: r.NewCounter("gradoop_cluster_telemetry_bytes_total",
			"Encoded pong bytes that carried a registry snapshot from a worker"),
		teleDropped: r.NewCounter("gradoop_cluster_telemetry_dropped_total",
			"Registry snapshots dropped for CRC or decode failure"),
	}
}

// bindRoster registers the live-roster gauge against the coordinator.
func (in *clusterInstruments) bindRoster(c *Coordinator) {
	if c.opts.Metrics == nil {
		return
	}
	c.opts.Metrics.NewGaugeFunc("gradoop_cluster_live_workers",
		"Workers currently in the live roster",
		func() float64 { return float64(c.LiveWorkers()) })
}

// observe records a successful distributed query.
func (in *clusterInstruments) observe(rep *session.ClusterReport, elapsed time.Duration) {
	in.attempts.Observe(int64(rep.Attempts))
	in.jobTime.Observe(int64(elapsed))
	for _, s := range rep.Stages {
		in.wireBytes.Add(s.WireBytes)
		in.predicted.Add(s.Predicted)
		in.actual.Add(s.Actual)
	}
}
