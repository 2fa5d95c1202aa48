package session

import (
	"context"
	"time"

	"gradoop/internal/core"
	"gradoop/internal/dataflow"
	"gradoop/internal/obs"
	"gradoop/internal/qstore"
)

// exit is how a request ended. ok is the zero value, so an outcome that
// names no failure is a success.
type exit uint8

const (
	exitOK exit = iota
	exitInvalid
	exitRejected
	exitTimeout
	exitFailed
	exitMemoryKill
	numExits
)

// exits says, per exit, what each ledger calls it: the classification of the
// *Error the caller gets (whose name is also the gradoop_query_errors_total
// label, which Metrics reads back) and the query-store outcome. A new way to
// end is a new row here and nothing else.
var exits = [numExits]struct {
	kind    Kind // meaningless for exitOK: there is no error to classify
	outcome qstore.Outcome
}{
	exitOK:         {outcome: qstore.OutcomeOK},
	exitInvalid:    {KindInvalid, qstore.OutcomeInvalid},
	exitRejected:   {KindRejected, qstore.OutcomeRejected},
	exitTimeout:    {KindTimeout, qstore.OutcomeTimeout},
	exitFailed:     {KindFailed, qstore.OutcomeError},
	exitMemoryKill: {KindMemoryBudget, qstore.OutcomeMemoryKill},
}

// lookup is what a request saw of one of the caches.
type lookup uint8

const (
	notLooked lookup = iota // the request ended before it, or the cache is bypassed
	lookupMiss
	lookupHit
)

func lookupOf(hit bool) lookup {
	if hit {
		return lookupHit
	}
	return lookupMiss
}

// count books one lookup into a cache's labelled series.
func (l lookup) count(series *obs.CounterVec) {
	switch l {
	case lookupHit:
		series.With("hit").Inc()
	case lookupMiss:
		series.With("miss").Inc()
	}
}

// outcome is the one description of a finished request: execute fills it and
// returns it, settle projects it into every ledger and into the caller's
// (*Response, error). It travels by value - a result-cache hit must not cost
// a heap object for it - and every field is the zero value until the request
// got far enough to know it.
type outcome struct {
	exit exit
	err  error // the cause; nil exactly when exit is exitOK

	start     time.Time
	ctx       context.Context // the request's, for the slow-query log's trace ID
	canonical string
	traceID   string

	// queued says the request waited at the admission gate - and so belongs
	// in the wait histogram - whether or not it won a slot; one turned away
	// by a full queue never waited.
	queued    bool
	queueWait time.Duration
	planDur   time.Duration
	execDur   time.Duration

	result   lookup
	plan     lookup
	planHash string

	// job is the dataflow job's snapshot: the whole job, SlotWait filled in,
	// of an execution that succeeded (the workers' merged one when it ran on
	// a cluster), the charges up to the failure of one that did not, zero
	// when nothing ran.
	job dataflow.MetricsSnapshot

	// The response's parts. res is the execution itself and nil on a
	// result-cache hit, which executed nothing; entry is the cache's on a
	// hit, the one to fill on a cacheable execution.
	columns []string
	count   int64
	entry   *cachedResult
	res     *core.Result
	cluster *ClusterReport
}

// fail ends the request with a failure.
func (o outcome) fail(how exit, err error) outcome {
	o.exit, o.err = how, err
	return o
}

// settle is the session's only ledger writer: the instruments, the job
// total, the query store and the slow-query log each get their view of the
// one outcome here, once, and the caller's (*Response, error) is built from it
// too - so the ledgers cannot disagree about a request, and a request cannot
// end without being booked.
func (s *Session) settle(o outcome) (*Response, error) {
	elapsed := time.Since(o.start)
	row, c, in := exits[o.exit], s.metrics, s.obs

	in.queries.Inc()
	if o.exit != exitOK {
		in.errors.With(row.kind.String()).Inc()
	}
	o.result.count(in.resultCache)
	o.plan.count(in.planCache)
	if o.queued {
		in.admissionWait.Observe(int64(o.queueWait))
	}
	in.queryTime.Observe(int64(elapsed))
	if o.res != nil {
		c.mergeJob(o.job)
		if th := s.opts.SlowQueryThreshold; th > 0 && elapsed >= th {
			in.slowQueries.Inc()
			s.logSlow(o, elapsed)
		}
	}

	if s.qstore != nil {
		rec := qstore.Record{
			Time:           time.Now().UnixNano(),
			TraceID:        o.traceID,
			Fingerprint:    qstore.QueryFingerprint(o.canonical),
			PlanHash:       o.planHash,
			Query:          o.canonical,
			Outcome:        row.outcome,
			Rows:           o.count,
			Bucket:         qstore.SelectivityBucket(o.count),
			ElapsedNs:      int64(elapsed),
			QueueNs:        int64(o.queueWait),
			PlanNs:         int64(o.planDur),
			ExecNs:         int64(o.execDur),
			MemBytes:       o.job.TotalMem,
			PlanCacheHit:   o.plan == lookupHit,
			ResultCacheHit: o.result == lookupHit,
		}
		if o.res != nil {
			rec.Ops = o.res.AnalyzedOps()
			if est, ok := o.res.Plan.Estimates[o.res.Plan.Root]; ok {
				rec.RootQError = qstore.QError(est, o.count)
			}
		}
		s.qstore.Append(rec)
		c.qstoreRecords.Add(1)
	}

	if o.exit != exitOK {
		return nil, classify(row.kind, o.err)
	}
	resp := &Response{
		Columns:         o.columns,
		Count:           o.count,
		Fingerprint:     o.planHash,
		PlanCacheHit:    o.plan == lookupHit,
		FromResultCache: o.result == lookupHit,
		Elapsed:         elapsed,
		QueueWait:       o.queueWait,
		Metrics:         o.job,
		Result:          o.res,
		Cluster:         o.cluster,
		entry:           o.entry,
		cache:           s.results,
	}
	if o.res != nil {
		resp.Trace = o.res.Trace
	}
	if resp.FromResultCache {
		resp.RowsLen = o.entry.rowsLen()
	}
	return resp, nil
}

// QueryStore exposes the session's query store (nil when disabled) for
// the HTTP /querystore endpoints and tests.
func (s *Session) QueryStore() *qstore.Store { return s.qstore }
