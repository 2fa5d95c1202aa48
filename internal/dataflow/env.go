// Package dataflow implements a partitioned, shared-nothing dataflow engine
// in the style of Apache Flink's DataSet API. It is the execution substrate
// for the Cypher query engine: datasets are split into P partitions, every
// transformation runs one goroutine per partition, and data moves between
// partitions only through explicit hash shuffles or broadcasts.
//
// Because the original system ran on a 16-node cluster, the engine meters
// the cost drivers of distributed execution — per-worker CPU work, bytes
// crossing partition boundaries, and disk spill under memory pressure — and
// derives a deterministic simulated cluster runtime from them (see Metrics).
// Real wall-clock time on the local machine is available to callers as well;
// the simulated time is what reproduces the paper's scalability figures.
//
// Like its model, the engine has a failure story (Flink restarts tasks and
// re-reads their inputs; the GRADOOP report leans on exactly that for
// production viability): partition goroutines recover panics into a
// structured JobError, jobs can be cancelled through a context, and a
// deterministic FaultPlan can kill workers mid-job to exercise the
// lineage-based recovery path. Once an Env has failed, every subsequent
// transformation short-circuits to an empty dataset and the error surfaces
// from Env.Err (and from core.Execute as a real error).
package dataflow

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"gradoop/internal/govern"
	"gradoop/internal/trace"
)

// Config describes a simulated cluster: how many workers execute a job and
// the cost coefficients of the simulated-time model. The zero value is not
// usable; call DefaultConfig or fill in all fields.
type Config struct {
	// Workers is the number of parallel workers (= dataset partitions).
	Workers int

	// MemoryPerWorker is the simulated memory budget, in bytes, available
	// to a single worker for join build sides. Build sides larger than the
	// budget spill the excess to simulated disk, exactly the effect that
	// produces the paper's super-linear speedups when more workers bring
	// more aggregate memory.
	MemoryPerWorker int64

	// CPUTimePerElement is the simulated cost of processing one element in
	// any transformation.
	CPUTimePerElement time.Duration

	// NetTimePerByte is the simulated cost of moving one byte between two
	// different workers during a shuffle or broadcast.
	NetTimePerByte time.Duration

	// DiskTimePerByte is the simulated cost of writing and re-reading one
	// spilled byte.
	DiskTimePerByte time.Duration

	// StageOverhead is a fixed simulated coordination cost charged once per
	// transformation (job stage), independent of the worker count. It models
	// scheduling/deployment latency and bounds speedup on tiny inputs.
	StageOverhead time.Duration

	// FaultPlan injects deterministic worker failures; nil disables
	// injection. Kill consumption is tracked per job and re-armed by
	// ResetMetrics / Begin, so kill stage numbers refer to the stages of
	// the job executed after the last reset. See also Env.InjectFaults.
	FaultPlan *FaultPlan
}

// DefaultConfig returns a configuration resembling the paper's setup scaled
// to a single machine: the coefficients are chosen so that the shapes of the
// evaluation figures (speedup curves, crossovers) match the paper's, not the
// absolute seconds.
func DefaultConfig(workers int) Config {
	return Config{
		Workers:           workers,
		MemoryPerWorker:   4 << 20, // 4 MiB of simulated join memory per worker
		CPUTimePerElement: 5 * time.Microsecond,
		NetTimePerByte:    40 * time.Nanosecond,
		DiskTimePerByte:   120 * time.Nanosecond,
		StageOverhead:     200 * time.Microsecond,
	}
}

// Cost hands out the simulated-time model's coefficients as the one value
// the charges are priced with (trace.CostModel.Time): by a job's snapshot,
// by a stage's span, and through the span by EXPLAIN ANALYZE and the
// cluster's predicted-vs-actual table.
func (c Config) Cost() trace.CostModel {
	return trace.CostModel{
		CPUPerElement: c.CPUTimePerElement,
		NetPerByte:    c.NetTimePerByte,
		DiskPerByte:   c.DiskTimePerByte,
		StageOverhead: c.StageOverhead,
	}
}

// cancelCheckMask controls how often per-element partition loops poll for
// cancellation (attempt.tick): every (mask+1) elements. 256 elements keep
// the overhead of the atomic load negligible while bounding the reaction
// latency to well under 100ms even for expensive UDFs.
const cancelCheckMask = 255

// Env is an execution environment: a simulated cluster plus the metrics
// accumulated by every dataset transformation executed against it. An Env is
// safe for use by the goroutines the engine itself spawns; callers should
// treat it as owned by one job at a time. Begin, Finish, InjectFaults and
// ResetMetrics must only be called between jobs (no transformation in
// flight).
type Env struct {
	cfg     Config
	metrics Metrics

	// tracer records per-stage execution spans; nil disables tracing (the
	// default, and the zero-cost path: every hook is a nil check). Written
	// only between jobs (SetTracer), like ctx.
	tracer *trace.Collector

	// observer publishes continuous telemetry (stage-time histograms,
	// shuffle/spill bytes, retries) into a process-wide obs.Registry; nil
	// disables it at the same nil-check cost as a nil tracer. obsKind and
	// obsStart carry the open stage's wall-clock timing; stage boundaries
	// run serially on the job's driving goroutine, so they need no lock.
	observer *Observer
	obsKind  string
	obsStart time.Time
	// curKind publishes the executing stage's interned kind string for
	// CurrentStage (live /jobs introspection); nil when no stage is open or
	// no observer is installed.
	curKind atomic.Pointer[string]

	// governor is the job's memory reservation against the process-wide
	// govern.Broker; nil disables real memory accounting at the same
	// nil-check cost as a nil tracer. Written only between jobs
	// (SetGovernor). memKilled latches the job's first budget kill so
	// MemKills counts killed jobs, not killed partitions.
	governor  *govern.Reservation
	memKilled atomic.Bool

	// transport connects this process's partitions to the rest of a
	// multi-process job; nil (the default) when the job is this process's
	// alone. owned[p] is whether this process owns logical partition p - nil
	// without a transport, when it owns them all - and foreign how many it does
	// not. Written only between jobs (SetTransport).
	transport Transport
	owned     []bool
	foreign   int

	// ctx/done carry the current job's cancellation signal; nil when the
	// job is not cancellable. Written only between jobs (Begin/Finish).
	ctx  context.Context
	done <-chan struct{}

	// failed is the fast-path flag partition loops poll; the first error
	// is kept under mu. killsUsed tracks fault-plan consumption per job.
	failed    atomic.Bool
	mu        sync.Mutex
	err       error
	killsUsed map[killKey]int

	// lanes[p] is what partition p works in for the length of a job (Lane).
	// Allocated by the job's first stage, dropped by Finish and ResetMetrics.
	lanes []Lane
}

type killKey struct {
	stage     int64
	partition int
}

// NewEnv creates an execution environment for the given cluster config.
// Workers is clamped to at least 1.
func NewEnv(cfg Config) *Env {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	e := &Env{cfg: cfg}
	e.metrics.init(cfg.Workers)
	return e
}

// NewEnvContext creates an execution environment whose jobs are cancelled
// when ctx is done. It is equivalent to NewEnv followed by Begin(ctx).
func NewEnvContext(ctx context.Context, cfg Config) *Env {
	e := NewEnv(cfg)
	e.Begin(ctx)
	return e
}

// Config returns the environment's cluster configuration.
func (e *Env) Config() Config { return e.cfg }

// Workers returns the configured worker (= partition) count.
func (e *Env) Workers() int { return e.cfg.Workers }

// Metrics returns a snapshot of the metrics accumulated so far.
func (e *Env) Metrics() MetricsSnapshot { return e.metrics.snapshot(e.cfg) }

// ResetMetrics clears all accumulated metrics, e.g. between the load phase
// and the query phase of a benchmark. It also re-arms the fault plan - kill
// stage numbers refer to the stages executed after the reset - and drops the
// partitions' lanes.
func (e *Env) ResetMetrics() {
	e.metrics.init(e.cfg.Workers)
	e.lanes = nil
	e.mu.Lock()
	e.killsUsed = nil
	e.mu.Unlock()
}

// Begin starts a new job on the environment: it installs ctx as the job's
// cancellation signal (nil means not cancellable), clears any failure left
// by a previous job and re-arms the fault plan. Metrics are not touched.
func (e *Env) Begin(ctx context.Context) {
	e.mu.Lock()
	e.err = nil
	e.killsUsed = nil
	e.mu.Unlock()
	e.failed.Store(false)
	e.obsKind = ""
	if ctx == nil {
		e.ctx, e.done = nil, nil
		return
	}
	e.ctx, e.done = ctx, ctx.Done()
}

// Finish ends the current job: it detaches the cancellation context,
// closes the tracer's open span, closes the observer's open stage timing,
// drops the partitions' lanes - an Env kept for the next job pins nothing of
// this one - and returns the job's error, if any. A failed environment stays
// failed — further transformations keep short-circuiting — until the next
// Begin.
func (e *Env) Finish() error {
	e.ctx, e.done = nil, nil
	e.lanes = nil
	if e.tracer != nil {
		e.tracer.Finish()
	}
	e.obsFinish()
	return e.Err()
}

// SetTracer installs (or, with nil, removes) the execution-trace collector.
// Must only be called between jobs. With no collector the engine's tracing
// hooks reduce to a nil check, so disabled tracing is free.
func (e *Env) SetTracer(c *trace.Collector) { e.tracer = c }

// SetGovernor installs (or, with nil, removes) the job's memory reservation.
// Must only be called between jobs. With a governor every materialization
// point charges its actual output bytes through govern.Reservation.Reserve
// and aborts the job — exactly like a contained panic — when the process
// budget kills it; without one (the default) the hooks reduce to a nil
// check. The environment does not release the reservation: its owner (the
// session) holds it for the query's lifetime and releases on completion.
func (e *Env) SetGovernor(r *govern.Reservation) {
	e.governor = r
	e.memKilled.Store(false)
}

// Governor returns the installed memory reservation, or nil.
func (e *Env) Governor() *govern.Reservation { return e.governor }

// Tracer returns the installed trace collector, or nil.
func (e *Env) Tracer() *trace.Collector { return e.tracer }

// MarkIteration tags subsequently traced stages with a 1-based bulk
// iteration superstep number (0 clears the tag). A no-op without a tracer.
func (e *Env) MarkIteration(it int) {
	if e.tracer != nil {
		e.tracer.SetIteration(it)
	}
}

// beginStage counts a new stage in the metrics and, when tracing, opens its
// span. Every transformation calls it exactly once, immediately before its
// partitioned run.
func (e *Env) beginStage(kind string, shuffle bool) {
	stage := e.metrics.addStage(shuffle)
	if e.tracer != nil {
		e.tracer.BeginStage(stage, kind, shuffle, e.cfg.Workers)
	}
	e.obsStageBoundary(kind)
}

// chargeCPU accounts elements processed by a worker, mirroring the charge
// into the active trace span.
func (e *Env) chargeCPU(worker int, elements int64) {
	e.metrics.addCPU(worker, elements)
	if e.tracer != nil {
		e.tracer.CPU(worker, elements)
	}
}

// chargeNet accounts bytes received by a worker over the simulated network.
func (e *Env) chargeNet(worker int, bytes int64) {
	e.metrics.addNet(worker, bytes)
	if e.tracer != nil {
		e.tracer.Net(worker, bytes)
	}
	if e.observer != nil {
		e.observer.shuffleBytes.Add(bytes)
	}
}

// chargeSpill accounts bytes spilled to simulated disk by a worker.
func (e *Env) chargeSpill(worker int, bytes int64) {
	e.metrics.addSpill(worker, bytes)
	if e.tracer != nil {
		e.tracer.Spill(worker, bytes)
	}
	if e.observer != nil {
		e.observer.spillBytes.Add(bytes)
	}
}

// chargeMem charges n freshly materialized bytes to the job's memory
// reservation and mirrors them into the metrics. It returns false when the
// governor kills the job — the structured budget error (wrapped in a
// JobError so it unwinds like any contained partition failure) is recorded
// and the short-circuit flag raised, so callers return immediately and
// sibling partitions stop at their next poll. With n == 0 it is a pure
// cooperative kill check: a reservation killed by another query's shedding
// still fails it. Without a governor it is a nil check.
func (e *Env) chargeMem(worker int, n int64) bool {
	if e.governor == nil {
		return true
	}
	if err := e.governor.Reserve(n); err != nil {
		if e.memKilled.CompareAndSwap(false, true) {
			e.metrics.memKills.Add(1)
		}
		e.fail(&JobError{Stage: e.metrics.stageCount(), Partition: worker, Cause: err})
		return false
	}
	if n > 0 {
		e.metrics.addMem(worker, n)
		if e.tracer != nil {
			e.tracer.Mem(worker, n)
		}
	}
	return true
}

// traceRowsIn records a partition's input row count for the active span.
func (e *Env) traceRowsIn(worker int, rows int64) {
	if e.tracer != nil {
		e.tracer.RowsIn(worker, rows)
	}
}

// traceRowsOut records a partition's output row count for the active span.
func (e *Env) traceRowsOut(worker int, rows int64) {
	if e.tracer != nil {
		e.tracer.RowsOut(worker, rows)
	}
}

// Err returns the first error recorded for the current job (a *JobError for
// contained panics and exhausted retries, a context error for
// cancellations, ErrEnvMismatch for mixed-environment operands), or nil.
func (e *Env) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// Failed reports whether the current job has failed; transformations on a
// failed environment short-circuit to empty datasets.
func (e *Env) Failed() bool { return e.failed.Load() }

// InjectFaults replaces the environment's fault plan and re-arms kill
// consumption. It exists so benchmarks can load data fault-free and then
// arm injection for the measured query. Must be called between jobs.
func (e *Env) InjectFaults(p *FaultPlan) {
	e.cfg.FaultPlan = p
	e.mu.Lock()
	e.killsUsed = nil
	e.mu.Unlock()
}

// fail records err as the job's failure (first error wins) and raises the
// short-circuit flag.
func (e *Env) fail(err error) {
	if err == nil {
		return
	}
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
	e.failed.Store(true)
}

// aborted reports whether the current job should stop: either it already
// failed, or its context was cancelled (in which case the context error is
// recorded as the job failure). Partition loops poll it between batches of
// elements, through their attempt's tick; runStage polls it at every stage
// boundary and at the end of every attempt.
func (e *Env) aborted() bool {
	if e.failed.Load() {
		return true
	}
	if e.done != nil {
		select {
		case <-e.done:
			e.fail(e.ctx.Err())
			return true
		default:
		}
	}
	return false
}

// consumeKill reports whether the fault plan kills the given attempt of
// (stage, partition), consuming one unit of the kill budget if so.
func (e *Env) consumeKill(stage int64, partition int) bool {
	budget := e.cfg.FaultPlan.killBudget(stage, partition)
	if budget == 0 {
		return false
	}
	key := killKey{stage: stage, partition: partition}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.killsUsed[key] >= budget {
		return false
	}
	if e.killsUsed == nil {
		e.killsUsed = map[killKey]int{}
	}
	e.killsUsed[key]++
	return true
}

// work is what one partition attempt did, as its body reports it and as
// runStage - nobody else - charges and traces it.
type work struct {
	cpu     int64 // elements processed: the simulated CPU charge
	rowsIn  int64 // rows read
	rowsOut int64 // rows of the partition the body returned
	spill   int64 // bytes written to and read back from simulated disk
}

// plus adds w2's work to w: two halves of one attempt.
func (w work) plus(w2 work) work {
	return work{cpu: w.cpu + w2.cpu, rowsIn: w.rowsIn + w2.rowsIn, rowsOut: w.rowsOut + w2.rowsOut, spill: w.spill + w2.spill}
}

// An attempt is one execution of one partition of a stage, as the stage's
// body sees it: where it polls (tick), where it accounts the bytes it
// materializes (hold) and the lane it works in. A retried partition gets a
// fresh one, so nothing a killed attempt held is carried over - the lane is
// the partition's, not the attempt's, and what is in it is rewritten from
// empty or never handed out twice (Lane). The handles of a stage share one
// allocation and are written by one goroutine each, hence the padding to a
// cache line.
type attempt struct {
	env  *Env
	lane *Lane
	p    int   // the partition
	mem  int64 // held since the last flush to the governor
	// dead: the job was cancelled, failed or killed under this attempt. The
	// body returns (whatever it returns is dropped) and nothing is charged,
	// traced or published.
	dead bool
	_    [24]byte // the 40 bytes above, padded to 64
}

// tick is the poll of a per-element loop, i the loop's index: every
// cancelCheckMask+1 elements it checks for cancellation and flushes the held
// bytes to the governor - the same cadence for both, so a blowup is killed
// mid-loop, not after its output has been built. It reports false when the
// attempt is dead and the body must return.
func (a *attempt) tick(i int) bool {
	return i&cancelCheckMask != cancelCheckMask || a.flush()
}

// hold accounts n freshly materialized bytes to the attempt; the next tick
// charges them to the governor.
func (a *attempt) hold(n int64) { a.mem += n }

// flush charges what the attempt holds, unless the job is over.
func (a *attempt) flush() bool {
	if a.dead || a.env.aborted() || !a.env.chargeMem(a.p, a.mem) {
		a.dead = true
		return false
	}
	a.mem = 0
	return true
}

// runStage executes body once per partition in [0, n), concurrently, and
// returns what the bodies returned, by partition. It is the engine's only
// parallelism primitive, its fault boundary and the one place a partition
// attempt is accounted: a body polls and holds through its attempt and
// returns its output and its work; runStage flushes the held bytes, charges
// CPU and spill, traces the rows and publishes the output - or, for an
// attempt that ends on an aborted job, none of it. Panics inside body are
// recovered into a JobError, injected worker failures are retried by
// re-executing the partition from its materialized input (lineage-based
// restart), and a job that has already failed is not started at all.
func runStage[O any](e *Env, n int, body func(a *attempt) (O, work)) []O {
	out := make([]O, n)
	if e.aborted() {
		return out
	}
	stage := e.metrics.stageCount()
	if len(e.lanes) < n {
		e.lanes = make([]Lane, n)
	}
	attempts := make([]attempt, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for p := range attempts {
		attempts[p] = attempt{env: e, lane: &e.lanes[p], p: p}
		go func() {
			defer wg.Done()
			runPartition(stage, &attempts[p], body, &out[p])
		}()
	}
	wg.Wait()
	return out
}

// runPartition drives the retry loop of one partition's stage execution.
// Injected worker failures are recovered with bounded retries and simulated
// backoff; genuine panics and exhausted budgets fail the job.
func runPartition[O any](stage int64, a *attempt, body func(*attempt) (O, work), out *O) {
	e, p := a.env, a.p
	plan := e.cfg.FaultPlan
	for n := 0; ; n++ {
		var started time.Time
		if e.tracer != nil {
			started = time.Now()
		}
		*a = attempt{env: e, lane: a.lane, p: p} // a retry inherits nothing but the lane
		err := runAttempt(stage, a, body, out)
		if e.tracer != nil {
			e.tracer.Attempt(stage, p, n, started, time.Now(), err != nil)
		}
		if err == nil {
			return
		}
		if _, injected := err.(*workerFailure); injected {
			if n < plan.maxRetries() {
				// Lineage-based recovery: charge the simulated redeployment
				// (backoff + stage overhead) and loop to re-execute the
				// partition; the recomputed work re-charges its own CPU.
				recovery := plan.backoff(n) + e.cfg.StageOverhead
				e.metrics.addRecovery(p, stage, recovery)
				if e.tracer != nil {
					e.tracer.Retry(stage, p, recovery)
				}
				if e.observer != nil {
					e.observer.retries.Inc()
				}
				continue
			}
			err = &JobError{
				Stage:     stage,
				Partition: p,
				Cause: fmt.Errorf("worker failed %d times, retry budget (%d) exhausted: %w",
					n+1, plan.maxRetries(), err),
			}
		}
		e.fail(err)
		return
	}
}

// runAttempt executes one attempt of body with panic containment and
// accounts it. It returns a *workerFailure for injected (retryable)
// failures, a *JobError for recovered panics, and nil on success or when the
// job is already aborted (the abort reason is recorded elsewhere).
func runAttempt[O any](stage int64, a *attempt, body func(*attempt) (O, work), out *O) (err error) {
	e := a.env
	defer func() {
		if r := recover(); r != nil {
			if wf, ok := r.(*workerFailure); ok {
				err = wf
				return
			}
			cause, ok := r.(error)
			if !ok {
				cause = fmt.Errorf("panic: %v", r)
			}
			err = &JobError{Stage: stage, Partition: a.p, Cause: cause, Stack: debug.Stack()}
		}
	}()
	if e.aborted() {
		return nil
	}
	res, w := body(a)
	if !a.flush() {
		return nil
	}
	if w.spill > 0 {
		e.chargeSpill(a.p, w.spill)
	}
	e.chargeCPU(a.p, w.cpu)
	e.traceRowsIn(a.p, w.rowsIn)
	e.traceRowsOut(a.p, w.rowsOut)
	*out = res
	// The injected kill fires after the partition's work: the worker dies
	// before the stage commits, so recovery must redo the work — the
	// re-execution cost shows up in the metrics, as on a real cluster.
	if e.cfg.FaultPlan != nil && e.consumeKill(stage, a.p) {
		panic(&workerFailure{stage: stage, partition: a.p})
	}
	return nil
}
