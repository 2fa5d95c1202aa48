// Package trace records the execution of a dataflow job as a sequence of
// per-stage spans. Every transformation the engine runs (a "stage" in
// Metrics terms) becomes one Span carrying the physical-plan operator it
// belongs to, whether it shuffled data, and per-partition statistics: rows
// in and out, charged CPU elements, network and spill bytes, wall time and
// retry counts. Failed and retried partition attempts are kept individually,
// so fault-injected re-executions show up as distinct retry spans.
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

// PartStats aggregates one partition's contribution to a stage.
type PartStats struct {
	// RowsIn and RowsOut count the elements entering and leaving the
	// partition. For shuffles RowsIn is counted on the sending partition and
	// RowsOut on the receiving one.
	RowsIn  int64 `json:"rowsIn"`
	RowsOut int64 `json:"rowsOut"`
	// CPUElements mirrors the simulated-cost CPU charge of the partition.
	CPUElements int64 `json:"cpuElements"`
	// NetBytes and SpillBytes mirror the network and disk charges.
	NetBytes   int64 `json:"netBytes"`
	SpillBytes int64 `json:"spillBytes"`
	// MemBytes mirrors the memory-broker materialization charge: bytes of
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
	// closed when the next stage begins or Finish is called.
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
}

// Collector accumulates spans and operator statistics for one job. It is
// safe for concurrent use by the engine's partition goroutines. The zero
// value is not usable; call NewCollector.
type Collector struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []*Span
	byStage map[int64]*Span
	cur     *Span

	ops     map[any]*OpStats
	opOrder []any
	stack   []opFrame

	iteration int
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
		epoch:   time.Now(),
		byStage: map[int64]*Span{},
		ops:     map[any]*OpStats{},
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
		c.ops[token] = &OpStats{Label: label}
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

// Note records what an operator says about how it ran (OpStats.Note). The
// operator must have been in scope: InOp is what makes it known.
func (c *Collector) Note(token any, note string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st, ok := c.ops[token]; ok {
		st.Note = note
	}
}

// BeginStage opens the span for a new stage, closing the previous one. The
// span is attributed to the innermost open operator scope.
func (c *Collector) BeginStage(stage int64, kind string, shuffle bool, parts int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.since()
	if c.cur != nil {
		c.cur.End = now
	}
	s := &Span{
		Stage:     stage,
		Kind:      kind,
		Shuffle:   shuffle,
		Iteration: c.iteration,
		Start:     now,
		Parts:     make([]PartStats, parts),
	}
	if n := len(c.stack); n > 0 {
		top := c.ops[c.stack[n-1].token]
		s.Op = top.Label
		top.Stages = append(top.Stages, stage)
	}
	c.spans = append(c.spans, s)
	c.byStage[stage] = s
	c.cur = s
}

// Finish closes the currently open span. Call it when the job ends.
func (c *Collector) Finish() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cur != nil {
		c.cur.End = c.since()
		c.cur = nil
	}
}

// part returns the current span's stats slot for partition p, growing the
// slice defensively if the engine reports an out-of-range partition.
func (c *Collector) part(p int) *PartStats {
	if c.cur == nil {
		return &PartStats{} // discarded
	}
	for p >= len(c.cur.Parts) {
		c.cur.Parts = append(c.cur.Parts, PartStats{})
	}
	return &c.cur.Parts[p]
}

// RowsIn records the input row count of partition p in the current stage.
// Re-executed partitions overwrite their previous value, so retried work is
// not double counted.
func (c *Collector) RowsIn(p int, n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.part(p).RowsIn = n
}

// RowsOut records the output row count of partition p in the current stage.
func (c *Collector) RowsOut(p int, n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.part(p).RowsOut = n
}

// CPU mirrors a CPU-element charge into the current stage.
func (c *Collector) CPU(p int, elements int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.part(p).CPUElements += elements
}

// Net mirrors a network-byte charge into the current stage.
func (c *Collector) Net(p int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.part(p).NetBytes += bytes
}

// Spill mirrors a spill-byte charge into the current stage.
func (c *Collector) Spill(p int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.part(p).SpillBytes += bytes
}

// Mem mirrors a memory-broker materialization charge into the current
// stage.
func (c *Collector) Mem(p int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.part(p).MemBytes += bytes
}

// Attempt records one partition execution attempt of a stage.
func (c *Collector) Attempt(stage int64, part, n int, start, end time.Time, failed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.byStage[stage]
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

// Retry records a retried partition of a stage along with the simulated
// recovery delay charged for it.
func (c *Collector) Retry(stage int64, part int, recovery time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.byStage[stage]
	if s == nil {
		return
	}
	for part >= len(s.Parts) {
		s.Parts = append(s.Parts, PartStats{})
	}
	s.Parts[part].Retries++
	s.Parts[part].Recovery += recovery
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
	if c.cur != nil {
		c.cur.End = c.since()
		c.cur = nil
	}
	out := make([]Span, len(c.spans))
	for i, s := range c.spans {
		out[i] = *s
		out[i].Parts = append([]PartStats(nil), s.Parts...)
		out[i].Attempts = append([]Attempt(nil), s.Attempts...)
	}
	return out
}

// Current returns a copy of the span of the stage executing right now, with
// its per-partition progress so far, without closing it — unlike Spans, it
// is safe to call while the job is still running (live /jobs introspection).
// ok is false when no stage is open.
func (c *Collector) Current() (cur Span, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cur == nil {
		return Span{}, false
	}
	cur = *c.cur
	cur.End = c.since()
	cur.Parts = append([]PartStats(nil), c.cur.Parts...)
	cur.Attempts = append([]Attempt(nil), c.cur.Attempts...)
	return cur, true
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
