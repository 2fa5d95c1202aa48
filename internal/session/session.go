// Package session implements the long-lived query service on top of the
// one-shot core operator: a Session loads a graph once, pins its statistics
// and label-partitioned representation, and serves many concurrent Cypher
// queries against it. It layers a single-flight plan cache (parameterized
// queries compile once and only bind per call), a byte-budgeted LRU result
// cache, and admission control (bounded job slots plus a bounded wait queue
// with per-request deadlines) over per-query dataflow environments, so one
// resident graph serves heavy traffic the way the ROADMAP's production
// target demands rather than one job at a time.
package session

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"time"

	"gradoop/internal/core"
	"gradoop/internal/cypher"
	"gradoop/internal/dataflow"
	"gradoop/internal/epgm"
	"gradoop/internal/govern"
	"gradoop/internal/obs"
	"gradoop/internal/operators"
	"gradoop/internal/planner"
	"gradoop/internal/qstore"
	"gradoop/internal/stats"
	csvstore "gradoop/internal/storage/csv"
	"gradoop/internal/trace"
)

// Options configures a session. The zero value is usable: paper semantics
// (vertex homomorphism, edge isomorphism), four workers, both caches on.
type Options struct {
	// Workers is the simulated cluster size of each query's environment.
	Workers int
	// Vertex and Edge are the session-wide morphism semantics.
	Vertex operators.Semantics
	Edge   operators.Semantics

	// NoPlanCache disables the plan cache (every request re-parses and
	// re-plans); NoResultCache disables the result cache. Benchmarks use
	// them to isolate each cache's contribution.
	NoPlanCache   bool
	NoResultCache bool
	// PlanCacheEntries caps the plan cache (default 128 entries).
	PlanCacheEntries int
	// ResultCacheBytes is the result cache budget (default 16 MiB).
	ResultCacheBytes int64

	// MaxConcurrent bounds simultaneously executing dataflow jobs (default
	// 4); MaxQueued bounds requests waiting for a slot (default 16,
	// negative = no queue at all) — a request beyond both fails fast with
	// ErrQueueFull.
	MaxConcurrent int
	MaxQueued     int

	// MemoryBudget is the process-wide budget, in bytes, for materialized
	// embeddings across all concurrent queries (0 = governance disabled at
	// zero cost). Every query charges its real materialized bytes against
	// it; when the budget is exhausted a query is killed per ShedPolicy with
	// a structured KindMemoryBudget error, and the result cache's memory is
	// released first (brownout). Admission is byte-aware: requests holding a
	// job slot still wait for reservation headroom before executing.
	MemoryBudget int64
	// ShedPolicy selects the kill victim on budget exhaustion:
	// govern.ShedLargest (default — the largest query in flight dies, small
	// well-behaved traffic survives a blowup) or govern.ShedSelf (the query
	// whose reservation crossed the budget dies).
	ShedPolicy govern.Policy
	// DefaultTimeout applies to requests without their own (0 = none). The
	// deadline covers queue wait and execution.
	DefaultTimeout time.Duration

	// Metrics is the continuous-telemetry registry the session (and the
	// engine underneath it) publishes into; nil disables telemetry at zero
	// cost. One registry serves one session — instrument names collide
	// otherwise.
	Metrics *obs.Registry
	// Logger receives the session's structured log records (currently the
	// slow-query log); nil disables logging.
	Logger *slog.Logger
	// SlowQueryThreshold makes successful queries at or above this service
	// time emit a slow-query log record with the canonicalized query and
	// its analyzed plan (0 = disabled).
	SlowQueryThreshold time.Duration

	// Remote, when non-nil, executes queries on an external worker cluster
	// (see internal/cluster): compilation, caching and admission stay local,
	// the dataflow job runs on the workers and the coordinator assembles the
	// result. Fault-injected requests (Request.Faults) always execute
	// in-process — the injection hooks live in the local environment.
	Remote RemoteExecutor

	// QueryStore receives one persistent record per completed execution
	// (every exit path: success, invalid, rejected, timeout, memory kill,
	// failure); nil disables the query store at zero cost, mirroring the
	// nil-registry and nil-broker off switches. The caller owns the
	// store's lifecycle (Open/Close).
	QueryStore *qstore.Store
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.Vertex == 0 && o.Edge == 0 {
		o.Vertex, o.Edge = operators.Homomorphism, operators.Isomorphism
	}
	if o.PlanCacheEntries <= 0 {
		o.PlanCacheEntries = 128
	}
	if o.ResultCacheBytes <= 0 {
		o.ResultCacheBytes = 16 << 20
	}
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = 4
	}
	if o.MaxQueued == 0 {
		o.MaxQueued = 16
	} else if o.MaxQueued < 0 {
		o.MaxQueued = 0
	}
	return o
}

// GraphData is one pinned graph's process-resident representation: the
// label-partitioned store (§3.4), the only copy of the graph this process
// keeps. It is immutable after construction and safe for concurrent Bind
// calls. Besides the session's own graphState, a cluster worker holds one per
// loaded dataset — every process of a distributed job binds the identical
// data and runs the identical program over its owned partitions.
type GraphData struct{ *epgm.Store }

// NewGraphData builds a logical graph's store; the graph itself is not kept.
func NewGraphData(g *epgm.LogicalGraph) *GraphData { return &GraphData{epgm.NewStore(g)} }

// Bind attaches the store to a fresh environment: a logical graph over the
// whole arrays plus the access leaves read through, which cuts a labeled
// scan's dataset out of the array and hands an unlabeled one the array.
// Neither copies an element.
func (d *GraphData) Bind(env *dataflow.Env) (*epgm.LogicalGraph, planner.GraphAccess) {
	idx := d.Index(env)
	return idx.ToLogicalGraph(), planner.IndexedAccess{Index: idx}
}

// graphState is one pinned graph: its GraphData plus the statistics
// collected once at load. It is immutable after construction — SwapGraph
// installs a whole new state.
type graphState struct {
	generation uint64
	data       *GraphData
	stats      *stats.GraphStatistics
}

// newGraphState keeps nothing of g but what the store copied out of it, and
// writes no process-wide memo: the statistics, read off the store, live and
// die with the state.
func newGraphState(g *epgm.LogicalGraph, generation uint64) *graphState {
	data := NewGraphData(g)
	return &graphState{generation: generation, data: data, stats: stats.FromStore(data.Store)}
}

// Session is a long-lived query service over one pinned graph.
type Session struct {
	opts    Options
	gate    *gate
	plans   *PlanCache
	results *resultCache
	broker  *govern.Broker
	metrics *counters
	obs     *instruments
	logger  *slog.Logger
	jobs    *jobTable
	qstore  *qstore.Store

	// state is swapped wholesale by SwapGraph; reads take the pointer once
	// and work on the immutable snapshot.
	stateMu sync.RWMutex
	state   *graphState
}

// New creates a session serving the given graph.
func New(g *epgm.LogicalGraph, opts Options) *Session {
	opts = opts.withDefaults()
	broker := govern.NewBroker(opts.MemoryBudget, opts.ShedPolicy)
	s := &Session{
		opts:    opts,
		gate:    newGate(opts.MaxConcurrent, opts.MaxQueued),
		plans:   NewPlanCache(opts.PlanCacheEntries),
		results: newResultCache(opts.ResultCacheBytes),
		broker:  broker,
		metrics: &counters{},
		logger:  opts.Logger,
		jobs:    newJobTable(),
		qstore:  opts.QueryStore,
		state:   newGraphState(g, 1),
	}
	s.gate.broker = broker
	// Under governance the result cache reserves its bytes from the same
	// budget queries charge against, and hands them all back under pressure
	// (brownout) before any query is killed.
	s.results.broker = broker
	broker.AddReclaimer(s.results.reclaim)
	s.obs = newInstruments(opts.Metrics, s)
	return s
}

// Broker exposes the session's memory broker (nil when governance is
// disabled) for health output and tests.
func (s *Session) Broker() *govern.Broker { return s.broker }

// Open loads a Gradoop-CSV dataset directory into a new session.
func Open(dir string, opts Options) (*Session, error) {
	opts = opts.withDefaults()
	env := dataflow.NewEnv(dataflow.DefaultConfig(opts.Workers))
	g, err := csvstore.ReadLogicalGraph(env, dir)
	if err != nil {
		return nil, err
	}
	return New(g, opts), nil
}

// Options returns the session's effective (defaulted) options.
func (s *Session) Options() Options { return s.opts }

// SwapGraph atomically replaces the served graph. In-flight queries finish
// against the old state (its slices are immutable); both caches are
// invalidated — plans because the statistics changed, results because the
// data did.
func (s *Session) SwapGraph(g *epgm.LogicalGraph) {
	s.stateMu.Lock()
	s.state = newGraphState(g, s.state.generation+1)
	s.stateMu.Unlock()
	s.plans.purge()
	s.results.purge()
}

// Close lets go of what the session keeps reachable: the pinned graph with
// its statistics and both caches (whose bytes go back to the memory broker).
// It is the last call on a session. Queries in flight finish on the state
// they started with; the session is left serving an empty graph, because a
// metrics registry that outlives it still holds it through its gauges.
func (s *Session) Close() {
	s.SwapGraph(epgm.GraphFromSlices(dataflow.NewEnv(dataflow.DefaultConfig(1)), "", nil, nil))
}

// snapshot returns the current immutable graph state.
func (s *Session) snapshot() *graphState {
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	return s.state
}

// GraphSize reports the pinned graph's element counts (health output).
func (s *Session) GraphSize() (vertices, edges int) {
	st := s.snapshot()
	return len(st.data.Vertices), len(st.data.Edges)
}

// Request is one query execution request.
type Request struct {
	Query string
	// Params bind the query's $parameters.
	Params map[string]epgm.PropertyValue
	// Timeout overrides the session's DefaultTimeout (0 = inherit). It
	// covers queue wait and execution.
	Timeout time.Duration
	// Context cancels the request (nil = not cancellable beyond Timeout).
	Context context.Context
	// Trace enables execution tracing: the response carries the collector
	// for EXPLAIN ANALYZE and Chrome-trace export. Traced requests bypass
	// the result cache so there is an execution to trace.
	Trace bool
	// Faults injects a worker-failure plan into the query's environment
	// (tests and chaos benchmarks). Fault-injected requests bypass the
	// result cache.
	Faults *dataflow.FaultPlan
}

// Response is one served query.
type Response struct {
	// Columns are the RETURN clause's column names, present whether or not
	// anything matched.
	Columns []string
	Count   int64
	// Fingerprint is the canonical plan key.
	Fingerprint string
	// PlanCacheHit reports whether the compilation was served from the plan
	// cache; FromResultCache whether the whole result was (in which case no
	// dataflow job ran and PlanCacheHit is false).
	PlanCacheHit    bool
	FromResultCache bool
	// Elapsed is the total service time, QueueWait the admission-queue
	// share of it.
	Elapsed   time.Duration
	QueueWait time.Duration
	// Metrics is the query's own dataflow job snapshot (zero when served
	// from the result cache), with SlotWait filled in.
	Metrics dataflow.MetricsSnapshot
	// Trace is the execution trace (Request.Trace only; nil for remote
	// executions, whose per-stage numbers arrive in Cluster instead).
	Trace *trace.Collector
	// Result is the underlying execution (nil when served from the result
	// cache): AnalyzedPlan, embeddings, graph collection.
	Result *core.Result
	// Cluster reports the distributed execution when the session runs with
	// Options.Remote (nil for in-process executions and cache hits).
	Cluster *ClusterReport

	// RowsLen is the length of the rows array where it is known before it is
	// written: on a result-cache hit. An execution's array is never built, so
	// its length is what WriteRows returns, and RowsLen is 0.
	RowsLen int

	// entry is the result-cache side of the rows: on a hit the cache's entry,
	// whose bytes WriteRows hands out; on a cacheable execution the entry
	// WriteRows fills and puts into cache; nil otherwise.
	entry *cachedResult
	cache *resultCache
}

// WriteRows writes the result table to w as the JSON array of row arrays the
// HTTP body carries, cells in Columns order, and returns the bytes w took.
// A result-cache hit writes the cache entry's own bytes (w reads them, never
// writes them). An execution is encoded from its Result as it is written, a
// bounded chunk at a time (core.Result.WriteRowsJSON), and stops at w's first
// error. The caller is outside the admission slot by now, so a slow reader
// holds no job slot. A cacheable execution's chunks are copied into its cache
// entry on the way, once, and stay the pieces they were; the entry is put
// when the whole array has gone out: a response nobody writes, one whose
// writer failed and one larger than the cache's budget cache nothing.
func (r *Response) WriteRows(w io.Writer) (int64, error) {
	if r.FromResultCache {
		var n int64
		for _, p := range r.entry.rows {
			m, err := w.Write(p)
			if n += int64(m); err != nil {
				return n, err
			}
		}
		return n, nil
	}
	if r.entry == nil {
		return r.Result.WriteRowsJSON(w)
	}
	e := r.entry
	r.entry = nil // a second call only writes
	t := teeWriter{w: w, budget: r.cache.budget - e.size()}
	n, err := r.Result.WriteRowsJSON(&t)
	if err == nil && t.budget >= 0 {
		e.rows = t.parts
		r.cache.put(e)
	}
	return n, err
}

// teeWriter passes an execution's chunks on to the response's writer and
// keeps a copy of each while their total fits what the cache could hold.
type teeWriter struct {
	w      io.Writer
	budget int64 // what may still be kept; negative once the body is too big
	parts  [][]byte
}

func (t *teeWriter) Write(p []byte) (int, error) {
	if t.budget >= 0 {
		if t.budget -= int64(len(p)); t.budget < 0 {
			t.parts = nil
		} else {
			kept := make([]byte, len(p)) // exactly: the entry is charged its length
			copy(kept, p)
			t.parts = append(t.parts, kept)
		}
	}
	return t.w.Write(p)
}

// baseConfig assembles the session-wide parts of a core.Config.
func (s *Session) baseConfig() core.Config {
	return core.Config{Vertex: s.opts.Vertex, Edge: s.opts.Edge}
}

// prepareToken is the trace token for the compile span.
type prepareToken struct{}

// compile returns the Prepared for a canonical query, through the plan
// cache unless disabled, and whether the cache served it (a failed
// compilation never did). On a miss (or with the cache off) the build is
// wrapped in a "Prepare" trace span when col is non-nil, which is how the
// benchmark verifies that cache hits skip parse+plan: a hit's trace has no
// such span.
func (s *Session) compile(st *graphState, canonical string, col *trace.Collector) (*core.Prepared, bool, error) {
	build := func() (p *core.Prepared, err error) {
		prepare := func() int64 {
			p, err = core.PrepareWith(st.stats, canonical, s.baseConfig())
			return 0
		}
		if col == nil {
			prepare()
		} else {
			col.InOp(prepareToken{}, "Prepare", prepare)
		}
		return p, err
	}
	if s.opts.NoPlanCache {
		p, err := build()
		return p, false, err
	}
	key := planKey(st.generation, canonical)
	// Each caller's build captures its own col, so the builder, and only the
	// builder, is the miss and carries the Prepare span; everyone else is a
	// hit with no span.
	p, built, err := s.plans.Prepare(key, build)
	if err != nil {
		return nil, false, err
	}
	if s.snapshot().generation != st.generation {
		// The graph was swapped since this request's snapshot: the plan is
		// still valid for this execution (st is immutable) but must not
		// linger in the cache pinning the retired graph's slices.
		s.plans.Drop(key)
	}
	return p, !built, nil
}

// Execute serves one query. Every failure is classified: *Error with
// KindInvalid (bad query or binding), KindRejected (queue full),
// KindTimeout (deadline or cancellation, queued or mid-flight),
// KindMemoryBudget (killed by the memory budget) or KindFailed (execution
// failure). A request never hangs: admission has a bounded queue and the
// deadline covers the wait.
//
// execute describes how the request went, settle books that description:
// every way out of execute is an outcome value, so no exit can skip a
// ledger.
func (s *Session) Execute(req Request) (*Response, error) {
	return s.settle(s.execute(req))
}

// execute runs the request and returns its outcome. It writes no counter,
// instrument or record: what it learns goes into the outcome.
func (s *Session) execute(req Request) outcome {
	o := outcome{
		start:     time.Now(),
		ctx:       req.Context,
		traceID:   obs.TraceIDFrom(req.Context),
		canonical: CanonicalQuery(req.Query),
	}
	if o.canonical == "" {
		return o.fail(exitInvalid, errors.New("empty query"))
	}

	// The deadline starts before queueing: time spent waiting for a slot
	// counts against it.
	ctx := req.Context
	timeout := req.Timeout
	if timeout <= 0 {
		timeout = s.opts.DefaultTimeout
	}
	var cancel context.CancelFunc
	if timeout > 0 {
		if ctx == nil {
			ctx = context.Background()
		}
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	st := s.snapshot()
	cacheable := !s.opts.NoResultCache && !req.Trace && req.Faults == nil
	resultKey := o.canonical + "\x00" + paramsKey(req.Params)
	if cacheable {
		if r, ok := s.results.get(resultKey, st.generation); ok {
			o.result = lookupHit
			o.columns, o.entry, o.count = r.columns, r, r.count
			return o
		}
		o.result = lookupMiss
	}

	liveJob := s.jobs.add(o.traceID, o.canonical)
	defer s.jobs.remove(liveJob)

	var err error
	o.queueWait, err = s.gate.acquire(ctx)
	if errors.Is(err, ErrQueueFull) {
		return o.fail(exitRejected, err)
	}
	o.queued = true
	if err != nil {
		return o.fail(exitTimeout, err)
	}
	defer s.gate.release()

	var col *trace.Collector
	if req.Trace {
		col = trace.NewCollector()
	}
	planStart := time.Now()
	prep, planHit, err := s.compile(st, o.canonical, col)
	o.planDur = time.Since(planStart)
	o.plan = lookupOf(planHit)
	if err != nil {
		return o.fail(exitInvalid, err)
	}
	o.planHash = prep.Fingerprint()

	// Under governance every query charges its materialized bytes to its own
	// reservation; Release on every exit path is what keeps the broker's
	// reserved-bytes gauge at zero between requests. A kill — own overflow or
	// shed by a bigger query's — also cancels the query context, so the
	// victim unwinds at its next cancellation poll even between
	// materialization points.
	var reservation *govern.Reservation
	if s.broker != nil {
		reservation = s.broker.Begin(o.canonical)
		defer reservation.Release()
		if ctx == nil {
			ctx = context.Background()
		}
		var cancelKill context.CancelFunc
		ctx, cancelKill = context.WithCancel(ctx)
		defer cancelKill()
		reservation.OnKill(cancelKill)
	}

	env := dataflow.NewEnv(dataflow.DefaultConfig(s.opts.Workers))
	env.SetObserver(s.obs.observer)
	env.SetGovernor(reservation)
	liveJob.start(env, col)
	if req.Faults != nil {
		env.InjectFaults(req.Faults)
	}
	g, access := st.data.Bind(env)
	cfg := s.baseConfig()
	cfg.Params = req.Params
	cfg.Stats = st.stats
	cfg.Access = access
	cfg.Context = ctx
	cfg.Trace = col

	execStart := time.Now()
	if s.opts.Remote != nil && req.Faults == nil {
		o.res, o.cluster, err = s.opts.Remote.ExecuteRemote(g, prep, cfg)
	} else {
		o.res, err = prep.Execute(g, cfg)
	}
	o.execDur = time.Since(execStart)
	if err != nil { // and o.res is nil: settle takes a non-nil res for an execution that succeeded
		o.job = env.Metrics()
		return o.fail(exitOf(err, reservation))
	}
	o.columns = o.res.Columns()
	o.count = o.res.Count()
	o.job = env.Metrics()
	if o.cluster != nil {
		// The local env only assembled the shipped result; the workers'
		// merged charges are the query's real metrics.
		o.job = o.cluster.Metrics
	}
	o.job.SlotWait = o.queueWait
	if cacheable {
		// Response.WriteRows fills in the rows and puts it.
		o.entry = &cachedResult{
			columns:    o.columns,
			count:      o.count,
			key:        resultKey,
			generation: st.generation,
		}
	}
	return o
}

// exitOf maps an execution error to how the request ended. The budget check
// runs before the context cases: a shed victim's kill cancels its query
// context, so the surfaced error is often context.Canceled — the
// reservation's structured kill error is the real cause and must win the
// classification.
func exitOf(err error, r *govern.Reservation) (exit, error) {
	if kerr := r.KillErr(); kerr != nil && !errors.Is(err, govern.ErrMemoryBudget) {
		err = fmt.Errorf("%w (surfaced as: %v)", kerr, err)
	}
	switch {
	case errors.Is(err, govern.ErrMemoryBudget):
		return exitMemoryKill, err
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return exitTimeout, err
	case errors.As(err, new(*cypher.MissingParamError)):
		// The binder's complaint surfaces at execution time for a template
		// plan, but it is the request that is wrong.
		return exitInvalid, err
	default:
		return exitFailed, err
	}
}

// Explain compiles a query (through the plan cache, warming it for later
// executions) and renders its template plan plus the canonical plan
// fingerprint, without executing anything.
func (s *Session) Explain(query string) (plan, fingerprint string, err error) {
	canonical := CanonicalQuery(query)
	if canonical == "" {
		return "", "", &Error{Kind: KindInvalid, Err: errors.New("empty query")}
	}
	prep, _, err := s.compile(s.snapshot(), canonical, nil)
	if err != nil {
		return "", "", classify(KindInvalid, err)
	}
	return prep.Plan.Explain(), prep.Fingerprint(), nil
}
