// Package trace records the execution of a dataflow job as a sequence of
// per-stage spans. Every transformation the engine runs (a "stage" in
// Metrics terms) becomes one Span carrying the physical-plan operator it
// belongs to, whether it shuffled data, and per-partition statistics: rows
// in and out, charged CPU elements, network and spill bytes, wall time and
// retry counts. Failed and retried partition attempts are kept individually,
// so fault-injected re-executions show up as distinct retry spans.
//
// A span's per-partition statistics are the engine's ledger row of the
// stage: the engine writes each charge once, into that row, and hands the
// row over in one call when the stage closes (EndStage). The collector adds
// what only it knows - the operator scope, the wall clock and the attempts.
//
// The collector is the engine's only tracing dependency: a nil *Collector
// disables tracing entirely (the engine guards every call with a nil check),
// which is the zero-cost path query execution takes by default. The package
// deliberately imports nothing from the engine but the field cursor its wire
// layout is written with (a leaf itself), so that dataflow, operators and
// core can all depend on it without cycles.
package trace

import (
	"sync"
	"time"
)

// PartStats is one partition's share of a stage: the engine's ledger row
// for that partition, as it stood when the stage closed.
type PartStats struct {
	// RowsIn and RowsOut count the elements entering and leaving the
	// partition, for the attempt that committed. For shuffles RowsIn is
	// counted on the sending partition and RowsOut on the receiving one.
	RowsIn  int64 `json:"rowsIn"`
	RowsOut int64 `json:"rowsOut"`
	// CPUElements is the simulated-cost CPU charge of the partition: the
	// elements every attempt of it processed.
	CPUElements int64 `json:"cpuElements"`
	// NetBytes and SpillBytes are the network and disk charges.
	NetBytes   int64 `json:"netBytes"`
	SpillBytes int64 `json:"spillBytes"`
	// MemBytes is the memory-broker materialization charge: bytes of
	// embeddings this partition reserved against the process budget while
	// the stage ran.
	MemBytes int64 `json:"memBytes,omitempty"`
	// Recovery is the simulated redeployment delay charged to this
	// partition for injected worker failures.
	Recovery time.Duration `json:"recoveryNs"`
	// Retries counts how often the partition was re-executed.
	Retries int64 `json:"retries"`
}

// Attempt is one execution attempt of a partition within a stage. A stage
// that never fails has exactly one attempt per executed partition; injected
// worker failures add one failed attempt per retry.
type Attempt struct {
	Part   int           `json:"part"`
	N      int           `json:"attempt"` // 0 = first attempt
	Start  time.Duration `json:"startNs"` // offset from the collector epoch
	End    time.Duration `json:"endNs"`
	Failed bool          `json:"failed"`
}

// Span is one executed stage.
type Span struct {
	// Stage is the 1-based stage number, matching Metrics' stage counter.
	Stage int64 `json:"stage"`
	// Op is the physical-plan operator the stage belongs to (its
	// Description), or "" for stages outside any operator scope.
	Op string `json:"op,omitempty"`
	// Kind names the dataflow transformation: FlatMap, Shuffle, Join, ...
	Kind string `json:"kind"`
	// Shuffle reports whether the stage exchanged data between workers.
	Shuffle bool `json:"shuffle"`
	// Iteration is the 1-based bulk-iteration superstep the stage ran in,
	// or 0 outside iterations.
	Iteration int `json:"iteration,omitempty"`
	// Start and End are wall-clock offsets from the collector epoch. End is
	// set when the stage closes (EndStage).
	Start time.Duration `json:"startNs"`
	End   time.Duration `json:"endNs"`
	// Parts holds per-partition statistics, indexed by partition.
	Parts []PartStats `json:"parts"`
	// Attempts lists individual partition execution attempts, in completion
	// order. Stages that run no partitioned work (Union, Broadcast) have
	// none.
	Attempts []Attempt `json:"attempts,omitempty"`
}

// Rows sums a column of the per-partition row counters.
func (s *Span) Rows() (in, out int64) {
	for _, p := range s.Parts {
		in += p.RowsIn
		out += p.RowsOut
	}
	return in, out
}

// Retries sums the per-partition retry counts.
func (s *Span) Retries() int64 {
	var n int64
	for _, p := range s.Parts {
		n += p.Retries
	}
	return n
}

// NetBytes sums the per-partition network charges: the cost model's
// cross-partition byte count for the stage.
func (s *Span) NetBytes() int64 {
	var n int64
	for _, p := range s.Parts {
		n += p.NetBytes
	}
	return n
}

// MemBytes sums the per-partition memory-broker charges.
func (s *Span) MemBytes() int64 {
	var n int64
	for _, p := range s.Parts {
		n += p.MemBytes
	}
	return n
}

// CostModel holds the coefficients of the simulated-time model (DESIGN
// decision 2). dataflow.Config hands it out (Config.Cost); it lives here
// because the charges it prices do (PartStats) and dataflow imports this
// package, not the other way round.
type CostModel struct {
	CPUPerElement time.Duration
	NetPerByte    time.Duration
	DiskPerByte   time.Duration
	// StageOverhead is charged once per stage, whatever its size.
	StageOverhead time.Duration
}

// Time prices one set of charges - a partition's share of a stage or a
// worker's share of a job. It is the only place the model's arithmetic is
// written: a job's MetricsSnapshot.SimTime and a stage's Span.SimTime are
// both a maximum of Time plus StageOverhead per stage.
func (m CostModel) Time(cpuElements, netBytes, spillBytes int64, recovery time.Duration) time.Duration {
	return time.Duration(cpuElements)*m.CPUPerElement +
		time.Duration(netBytes)*m.NetPerByte +
		time.Duration(spillBytes)*m.DiskPerByte +
		recovery
}

// SimTime is the stage's simulated cluster time under m: the slowest
// partition's Time plus the stage overhead. What ties it to the job's
// MetricsSnapshot.SimTime is the charges, not the times: summed over the
// spans, each worker's partitions' CPU, network, spill and recovery charges
// are that worker's entries in the snapshot, and Time over those sums plus
// one overhead per stage is the snapshot's SimTime exactly
// (dataflow.TestSpanChargesPriceToSnapshot). The per-stage SimTimes do not
// sum to it: the slowest worker of one stage need not be the slowest of the
// next, so their sum is an upper bound on the job's figure.
func (s *Span) SimTime(m CostModel) time.Duration {
	var worst time.Duration
	for _, p := range s.Parts {
		worst = max(worst, m.Time(p.CPUElements, p.NetBytes, p.SpillBytes, p.Recovery))
	}
	return worst + m.StageOverhead
}

// OpStats aggregates the execution of one physical-plan operator: its
// actual output cardinality (the number EXPLAIN ANALYZE compares against
// the planner's estimate), the wall time spent in its own stages (children
// excluded — they are evaluated outside the operator's scope), and the
// stages attributed to it.
type OpStats struct {
	Label string        `json:"label"`
	Rows  int64         `json:"rows"`
	Wall  time.Duration `json:"wallNs"`
	// Evaluations counts how often the operator was evaluated (cached
	// sub-plans evaluate once however often they are referenced).
	Evaluations int     `json:"evaluations"`
	Stages      []int64 `json:"stages"`
	// Note is what the operator has to say about how it ran, if anything: a
	// join's strategy and the counts it chose it on, a leaf that was probed
	// where it lay.
	Note string `json:"note,omitempty"`
	// InPlace marks a leaf that a join read where the store holds it instead
	// of scanning it: its Rows are what the join made of it, not a scan of its
	// label, so no estimate of the leaf's is comparable with them.
	InPlace bool `json:"inPlace,omitempty"`
}

// Collector accumulates spans and operator statistics for one job. It is
// safe for concurrent use by the engine's partition goroutines. The zero
// value is not usable; call NewCollector.
type Collector struct {
	mu    sync.Mutex
	epoch time.Time
	spans []*Span
	cur   *Span

	ops     map[any]*OpStats
	opOrder []any
	stack   []opFrame

	iteration int

	// The chunks spans, their per-partition slots and their attempts are
	// carved from: a stage costs the collector no object of its own, a few
	// chunks cost a job.
	spanChunk    []Span
	partChunk    []PartStats
	attemptChunk []Attempt
	opChunk      []OpStats
}

// chunkStages is how many stages' worth of spans, partition slots and attempts
// a chunk holds.
const chunkStages = 16

// carve returns n zeroed elements from the front of *chunk, clipped to their
// length so that growing them never reaches the next carve, and refills the
// chunk with max(n, size) elements when it holds fewer than n.
func carve[T any](chunk *[]T, n, size int) []T {
	if len(*chunk) < n {
		*chunk = make([]T, max(n, size))
	}
	s := (*chunk)[:n:n]
	*chunk = (*chunk)[n:]
	return s
}

type opFrame struct {
	token any
	start time.Time
	inner time.Duration // wall time of nested scopes, excluded from self time
}

// NewCollector returns an empty collector whose span timestamps are offsets
// from now.
func NewCollector() *Collector {
	return &Collector{
		epoch: time.Now(),
		ops:   map[any]*OpStats{},
	}
}

func (c *Collector) since() time.Duration { return time.Since(c.epoch) }

// InOp runs body inside an operator scope: stages begun while it runs are
// attributed to label, and what it returns is recorded as the operator's
// actual output cardinality. token identifies the operator (the engine
// passes the operator itself) so statistics can be looked up per plan node.
// The scope closes even when body panics (cardinality 0 then): a frame left
// open would attribute every later stage to this operator.
func (c *Collector) InOp(token any, label string, body func() int64) {
	var rows int64
	c.pushOp(token, label)
	defer func() { c.popOp(token, rows) }()
	rows = body()
}

func (c *Collector) pushOp(token any, label string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.ops[token]; !ok {
		st := &carve(&c.opChunk, 1, chunkStages)[0]
		st.Label = label
		c.ops[token] = st
		c.opOrder = append(c.opOrder, token)
	}
	c.stack = append(c.stack, opFrame{token: token, start: time.Now()})
}

// popOp leaves the scope pushOp entered for token and records the operator's
// actual output cardinality.
func (c *Collector) popOp(token any, rows int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.stack)
	if n == 0 || c.stack[n-1].token != token {
		return // unbalanced scope; drop rather than corrupt the stack
	}
	frame := c.stack[n-1]
	c.stack = c.stack[:n-1]
	elapsed := time.Since(frame.start)
	st := c.ops[token]
	st.Rows = rows
	st.Wall += elapsed - frame.inner
	st.Evaluations++
	if n > 1 {
		c.stack[n-2].inner += elapsed
	}
}

// Note records what an operator says about how it ran (OpStats.Note), after
// what it said before, if anything. The operator must have been in scope:
// InOp is what makes it known.
func (c *Collector) Note(token any, note string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st, ok := c.ops[token]; ok {
		if st.Note != "" {
			note = st.Note + " " + note
		}
		st.Note = note
	}
}

// ReadInPlace marks an operator as a leaf that a join read where the store
// holds it (OpStats.InPlace). The operator must have been in scope.
func (c *Collector) ReadInPlace(token any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st, ok := c.ops[token]; ok {
		st.InPlace = true
	}
}

// BeginStage opens the span for a new stage, closing the previous one. The
// span is attributed to the innermost open operator scope.
func (c *Collector) BeginStage(stage int64, kind string, shuffle bool, parts int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.close()
	now := c.since()
	s := &carve(&c.spanChunk, 1, chunkStages)[0]
	*s = Span{
		Stage:     stage,
		Kind:      kind,
		Shuffle:   shuffle,
		Iteration: c.iteration,
		Start:     now,
		Parts:     carve(&c.partChunk, parts, chunkStages*parts),
		// A stage makes one attempt per partition unless one fails.
		Attempts: carve(&c.attemptChunk, parts, chunkStages*parts)[:0],
	}
	if n := len(c.stack); n > 0 {
		top := c.ops[c.stack[n-1].token]
		s.Op = top.Label
		top.Stages = append(top.Stages, stage)
	}
	if c.spans == nil {
		c.spans = make([]*Span, 0, chunkStages)
	}
	c.spans = append(c.spans, s)
	c.cur = s
}

// span returns the span of a stage: the open one, or else the latest of that
// number.
func (c *Collector) span(stage int64) *Span {
	if c.cur != nil && c.cur.Stage == stage {
		return c.cur
	}
	for i := len(c.spans) - 1; i >= 0; i-- {
		if c.spans[i].Stage == stage {
			return c.spans[i]
		}
	}
	return nil
}

// EndStage closes the open span with its partitions' charges, parts[p]
// being partition p's: the engine's ledger row of the stage, handed over once,
// when the stage closes.
func (c *Collector) EndStage(parts []PartStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cur != nil {
		copy(c.cur.Parts, parts)
	}
	c.close()
}

// Attempt records one partition execution attempt of a stage.
func (c *Collector) Attempt(stage int64, part, n int, start, end time.Time, failed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.span(stage)
	if s == nil {
		return
	}
	s.Attempts = append(s.Attempts, Attempt{
		Part:   part,
		N:      n,
		Start:  start.Sub(c.epoch),
		End:    end.Sub(c.epoch),
		Failed: failed,
	})
}

// SetIteration marks subsequent stages as belonging to the given 1-based
// bulk-iteration superstep; 0 clears the mark.
func (c *Collector) SetIteration(it int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.iteration = it
}

// Spans returns a copy of all recorded spans in execution order, closing
// the open span first.
func (c *Collector) Spans() []Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.close()
	out := make([]Span, len(c.spans))
	for i, s := range c.spans {
		out[i] = *s
		out[i].Parts = append([]PartStats(nil), s.Parts...)
		out[i].Attempts = append([]Attempt(nil), s.Attempts...)
	}
	return out
}

// Len returns how many spans have been recorded.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.spans)
}

// Walk calls fn with every recorded span in execution order, closing the open
// span first, and copies none of them: what a caller that only reads the
// spans - a cluster worker's stage table - pays nothing for. It holds the
// collector's lock throughout, so fn must not call the collector or keep s.
func (c *Collector) Walk(fn func(s *Span)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.close()
	for _, s := range c.spans {
		fn(s)
	}
}

// close ends the open span now. The caller holds c.mu.
func (c *Collector) close() {
	if c.cur != nil {
		c.cur.End = c.since()
		c.cur = nil
	}
}

// Current returns the operator the stage executing right now belongs to: ""
// when no stage is open or it is outside any operator scope. It is safe to
// call while the job runs (live /jobs introspection); the stage's number,
// kind and per-partition progress are the engine's (dataflow.Env.CurrentStage).
func (c *Collector) Current() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cur == nil {
		return ""
	}
	return c.cur.Op
}

// Op returns the statistics recorded for an operator token.
func (c *Collector) Op(token any) (OpStats, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.ops[token]
	if !ok {
		return OpStats{}, false
	}
	out := *st
	out.Stages = append([]int64(nil), st.Stages...)
	return out, true
}

// Ops returns the statistics of every traced operator in first-evaluation
// order.
func (c *Collector) Ops() []OpStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]OpStats, 0, len(c.opOrder))
	for _, token := range c.opOrder {
		st := *c.ops[token]
		st.Stages = append([]int64(nil), st.Stages...)
		out = append(out, st)
	}
	return out
}
