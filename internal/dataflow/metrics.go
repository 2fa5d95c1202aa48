package dataflow

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gradoop/internal/field"
	"gradoop/internal/trace"
)

// Metrics is the job's ledger: one row per partition for the open stage,
// which every charge is written to and nothing else is (Env.charge,
// chargeMem, chargeRetry), and the totals of the stages closed before it.
// Rows are atomics - every partition goroutine hits its own on its hot path,
// and a shared mutex there would serialize exactly the workers the engine
// tries to run in parallel. When the stage closes its rows are taken once,
// zeroing them, and folded into the totals (Env.closeStage); mu orders that
// fold against a snapshot of a running job. User code never touches Metrics
// directly.
type Metrics struct {
	open     []row        // the open stage's charges, per partition
	stages   atomic.Int64 // transformations executed
	shuffles atomic.Int64 // transformations that required a network exchange
	memKills atomic.Int64 // jobs killed by the memory budget (latched once per job)

	mu      sync.Mutex        // guards the three below
	total   []trace.PartStats // the closed stages' charges, per partition
	closed  []trace.PartStats // the last stage closed, as it was taken
	retried int64             // closed stages in which a partition was retried
}

// A row is one partition's charges in the open stage.
type row struct {
	cpu, net, spill, mem, recovery, retries, rowsIn, rowsOut atomic.Int64
}

// stats reads the row, each counter through read: Load while its partition
// may still be writing it, Swap to take it when the stage closes.
func (r *row) stats(read func(*atomic.Int64) int64) trace.PartStats {
	return trace.PartStats{
		RowsIn:      read(&r.rowsIn),
		RowsOut:     read(&r.rowsOut),
		CPUElements: read(&r.cpu),
		NetBytes:    read(&r.net),
		SpillBytes:  read(&r.spill),
		MemBytes:    read(&r.mem),
		Recovery:    time.Duration(read(&r.recovery)),
		Retries:     read(&r.retries),
	}
}

func load(v *atomic.Int64) int64 { return v.Load() }
func take(v *atomic.Int64) int64 { return v.Swap(0) }

// addCharges adds s's charges - not its rows, which are a stage's own - to t.
func addCharges(t *trace.PartStats, s trace.PartStats) {
	t.CPUElements += s.CPUElements
	t.NetBytes += s.NetBytes
	t.SpillBytes += s.SpillBytes
	t.MemBytes += s.MemBytes
	t.Recovery += s.Recovery
	t.Retries += s.Retries
}

// init (re)allocates the ledger: the rows, and the totals and the closed
// stage in one array. It must only run between jobs: the rows are swapped
// wholesale and concurrent writers would update the old ones.
func (m *Metrics) init(workers int) {
	m.open = make([]row, workers)
	stats := make([]trace.PartStats, 2*workers)
	m.total, m.closed = stats[:workers:workers], stats[workers:]
	m.stages.Store(0)
	m.shuffles.Store(0)
	m.memKills.Store(0)
	m.retried = 0
}

// addStage counts one transformation and returns its 1-based stage number.
func (m *Metrics) addStage(shuffle bool) int64 {
	n := m.stages.Add(1)
	if shuffle {
		m.shuffles.Add(1)
	}
	return n
}

// stageCount returns the number of the stage currently executing (stages
// are counted by addStage immediately before their partitioned run).
func (m *Metrics) stageCount() int64 { return m.stages.Load() }

// fold takes the open stage's rows, zeroing them, adds them into the totals
// and returns them with the stage's network, spill and retry sums. Only a
// stage boundary calls it, when no partition of the stage runs any more; what
// it returns is read before the next stage closes.
func (m *Metrics) fold() (closed []trace.PartStats, net, spill, retries int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for p := range m.open {
		s := m.open[p].stats(take)
		m.closed[p] = s
		addCharges(&m.total[p], s)
		net += s.NetBytes
		spill += s.SpillBytes
		retries += s.Retries
	}
	if retries > 0 {
		m.retried++
	}
	return m.closed, net, spill, retries
}

// MetricsSnapshot is an immutable copy of a job's accumulated metrics
// together with the simulated runtime derived from them.
type MetricsSnapshot struct {
	Workers      int
	CPUElements  []int64 // per worker
	NetBytes     []int64 // per worker
	SpillBytes   []int64 // per worker
	MemBytes     []int64 // per worker, real materialized bytes (governed jobs only)
	Stages       int64
	Shuffles     int64
	TotalCPU     int64 // sum of CPUElements
	TotalNet     int64 // sum of NetBytes
	TotalSpill   int64 // sum of SpillBytes
	TotalMem     int64 // sum of MemBytes — what the job reserved from the memory broker
	SimTime      time.Duration
	MaxWorkerCPU int64 // the busiest worker's element count (skew indicator)

	// MemKills counts jobs killed by the process memory budget (at most 1
	// for a raw single-job snapshot; sums under Merge).
	MemKills int64

	// Retries counts partition re-executions after injected worker
	// failures; RetriedStages counts the distinct stages that needed at
	// least one retry. RecoveryTime is the total simulated redeployment
	// and backoff delay charged for those recoveries (the recomputed work
	// is charged through the ordinary CPU/spill counters and therefore
	// also inflates SimTime).
	Retries       int64
	RetriedStages int64
	RecoveryTime  time.Duration

	// Jobs counts the dataflow jobs aggregated into the snapshot: 0 for a
	// raw single-job snapshot taken from an Env, ≥1 after Merge (which
	// treats a raw snapshot as one job). A query service accumulates its
	// per-query snapshots into one running total through Merge.
	Jobs int64
	// SlotWait is the accumulated time jobs spent queued for an execution
	// slot before starting (admission-control accounting; zero for jobs
	// admitted immediately).
	SlotWait time.Duration
}

// Layout names the snapshot's fields in wire order for field.Codec, walked in
// both directions: a cluster worker's done report carries its job's snapshot.
// A field added to the struct is added here, or it does not cross
// (TestMetricsSnapshotLayoutIsWhole).
func (s *MetricsSnapshot) Layout(c *field.Codec) {
	c.Int32(&s.Workers)
	for _, v := range [...]*[]int64{&s.CPUElements, &s.NetBytes, &s.SpillBytes, &s.MemBytes} {
		field.Slice(c, v, 8, func(v *int64, c *field.Codec) { c.I64(v) })
	}
	for _, v := range [...]*int64{&s.Stages, &s.Shuffles, &s.TotalCPU, &s.TotalNet, &s.TotalSpill, &s.TotalMem,
		&s.MaxWorkerCPU, &s.MemKills, &s.Retries, &s.RetriedStages, &s.Jobs} {
		c.I64(v)
	}
	c.Dur(&s.SimTime)
	c.Dur(&s.RecoveryTime)
	c.Dur(&s.SlotWait)
}

// addCharges adds what o's workers were charged into s: the per-worker
// arrays index-wise (growing to the wider one), their totals, and the retry
// and kill counters. It is the half both merges share - across jobs (Merge)
// and across the processes of one job (MergeProcess) a charge is a charge
// and sums - so a charge added to the snapshot is added here once. The
// receiver owns its slices afterwards; o's are never aliased.
func (s *MetricsSnapshot) addCharges(o MetricsSnapshot) {
	add := func(dst, src []int64) []int64 {
		for len(dst) < len(src) {
			dst = append(dst, 0)
		}
		for w, v := range src {
			dst[w] += v
		}
		return dst
	}
	s.Workers = max(s.Workers, o.Workers)
	s.CPUElements = add(s.CPUElements, o.CPUElements)
	s.NetBytes = add(s.NetBytes, o.NetBytes)
	s.SpillBytes = add(s.SpillBytes, o.SpillBytes)
	s.MemBytes = add(s.MemBytes, o.MemBytes)
	s.TotalCPU += o.TotalCPU
	s.TotalNet += o.TotalNet
	s.TotalSpill += o.TotalSpill
	s.TotalMem += o.TotalMem
	s.MemKills += o.MemKills
	s.Retries += o.Retries
	s.RetriedStages += o.RetriedStages
	s.RecoveryTime += o.RecoveryTime
}

// Merge accumulates another job's snapshot into s: charges, stage counts,
// simulated times and slot waits add up; MaxWorkerCPU takes the maximum.
// Jobs sums, with a raw per-job snapshot (Jobs == 0) counting as one job.
func (s *MetricsSnapshot) Merge(o MetricsSnapshot) {
	s.addCharges(o)
	s.Stages += o.Stages
	s.Shuffles += o.Shuffles
	s.SimTime += o.SimTime
	s.MaxWorkerCPU = max(s.MaxWorkerCPU, o.MaxWorkerCPU)
	s.Jobs += max(o.Jobs, 1)
	s.SlotWait += o.SlotWait
}

// MergeProcess folds in the snapshot of another process of the same job (a
// cluster worker's): each process charged only the partitions it owned, so
// the charges sum back to what one process owning them all would have been
// charged, while every process ran the same stages - Stages, Shuffles and
// SimTime (the job's critical path) take the slowest process - and
// MaxWorkerCPU is read off the summed array. The result stays a raw per-job
// snapshot: Jobs and SlotWait are untouched.
func (s *MetricsSnapshot) MergeProcess(o MetricsSnapshot) {
	s.addCharges(o)
	s.Stages = max(s.Stages, o.Stages)
	s.Shuffles = max(s.Shuffles, o.Shuffles)
	s.SimTime = max(s.SimTime, o.SimTime)
	for _, v := range s.CPUElements {
		s.MaxWorkerCPU = max(s.MaxWorkerCPU, v)
	}
}

// Clone returns a deep copy of the snapshot: the per-worker slices are
// copied, never aliased, so the clone can be handed to a serializer while
// the original keeps accumulating under its owner's lock. Unlike Merge into
// an empty snapshot, Clone preserves Jobs exactly (Merge counts a raw
// snapshot's Jobs == 0 as one job).
func (s MetricsSnapshot) Clone() MetricsSnapshot {
	s.CPUElements = append([]int64(nil), s.CPUElements...)
	s.NetBytes = append([]int64(nil), s.NetBytes...)
	s.SpillBytes = append([]int64(nil), s.SpillBytes...)
	s.MemBytes = append([]int64(nil), s.MemBytes...)
	return s
}

// snapshot is the totals plus the open stage's rows, so a snapshot taken
// mid-job or after a failure loses no charge.
func (m *Metrics) snapshot(cfg Config) MetricsSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	w := len(m.total)
	s := MetricsSnapshot{
		Workers:       w,
		CPUElements:   make([]int64, w),
		NetBytes:      make([]int64, w),
		SpillBytes:    make([]int64, w),
		MemBytes:      make([]int64, w),
		Stages:        m.stages.Load(),
		Shuffles:      m.shuffles.Load(),
		RetriedStages: m.retried,
		MemKills:      m.memKills.Load(),
	}
	cost := cfg.Cost()
	var worst time.Duration
	var openRetries int64
	for p := range m.total {
		r := m.open[p].stats(load)
		openRetries += r.Retries
		t := m.total[p]
		addCharges(&t, r)
		s.CPUElements[p] = t.CPUElements
		s.NetBytes[p] = t.NetBytes
		s.SpillBytes[p] = t.SpillBytes
		s.MemBytes[p] = t.MemBytes
		s.TotalCPU += t.CPUElements
		s.TotalNet += t.NetBytes
		s.TotalSpill += t.SpillBytes
		s.TotalMem += t.MemBytes
		s.RecoveryTime += t.Recovery
		s.Retries += t.Retries
		s.MaxWorkerCPU = max(s.MaxWorkerCPU, t.CPUElements)
		worst = max(worst, cost.Time(t.CPUElements, t.NetBytes, t.SpillBytes, t.Recovery))
	}
	if openRetries > 0 {
		s.RetriedStages++
	}
	s.SimTime = worst + time.Duration(s.Stages)*cost.StageOverhead
	return s
}

// Skew reports the ratio between the busiest worker's element count and the
// mean element count; 1.0 means a perfectly balanced job.
func (s MetricsSnapshot) Skew() float64 {
	if s.TotalCPU == 0 || s.Workers == 0 {
		return 1
	}
	mean := float64(s.TotalCPU) / float64(s.Workers)
	return float64(s.MaxWorkerCPU) / mean
}

// String renders a single-line human-readable summary.
func (s MetricsSnapshot) String() string {
	line := fmt.Sprintf("workers=%d stages=%d shuffles=%d cpuElems=%d netBytes=%d spillBytes=%d skew=%.2f simTime=%s",
		s.Workers, s.Stages, s.Shuffles, s.TotalCPU, s.TotalNet, s.TotalSpill, s.Skew(), s.SimTime)
	if s.Retries > 0 {
		line += fmt.Sprintf(" retries=%d retriedStages=%d recovery=%s", s.Retries, s.RetriedStages, s.RecoveryTime)
	}
	if s.TotalMem > 0 || s.MemKills > 0 {
		line += fmt.Sprintf(" memBytes=%d memKills=%d", s.TotalMem, s.MemKills)
	}
	return line
}
