package dataflow

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Metrics accumulates the cost drivers of a dataflow job per worker. The
// per-worker counters are plain atomics — every partition goroutine hits
// them on its hot path, and a shared mutex there serializes exactly the
// workers the engine tries to run in parallel. Only the retried-stage set,
// touched on the rare recovery path, keeps a lock. User code never touches
// Metrics directly.
type Metrics struct {
	cpuElements   []atomic.Int64     // elements processed, per worker
	netBytes      []atomic.Int64     // bytes received over the simulated network, per worker
	spillBytes    []atomic.Int64     // bytes written+read to simulated disk, per worker
	memBytes      []atomic.Int64     // real materialized bytes reserved with the governor, per worker
	recoveryNs    []atomic.Int64     // simulated redeployment/backoff nanoseconds, per worker
	stages        atomic.Int64       // transformations executed
	shuffles      atomic.Int64       // transformations that required a network exchange
	retries       atomic.Int64       // partition re-executions after injected failures
	memKills      atomic.Int64       // jobs killed by the memory budget (latched once per job)
	mu            sync.Mutex         // guards retriedStages
	retriedStages map[int64]struct{} // distinct stages that needed ≥1 retry
}

// init (re)allocates the counters. It must only run between jobs: the
// slices are swapped wholesale and concurrent writers would update the old
// ones.
func (m *Metrics) init(workers int) {
	m.cpuElements = make([]atomic.Int64, workers)
	m.netBytes = make([]atomic.Int64, workers)
	m.spillBytes = make([]atomic.Int64, workers)
	m.memBytes = make([]atomic.Int64, workers)
	m.recoveryNs = make([]atomic.Int64, workers)
	m.stages.Store(0)
	m.shuffles.Store(0)
	m.retries.Store(0)
	m.memKills.Store(0)
	m.mu.Lock()
	m.retriedStages = nil
	m.mu.Unlock()
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

func (m *Metrics) addCPU(worker int, elements int64) {
	m.cpuElements[worker].Add(elements)
}

func (m *Metrics) addNet(worker int, bytes int64) {
	m.netBytes[worker].Add(bytes)
}

func (m *Metrics) addSpill(worker int, bytes int64) {
	m.spillBytes[worker].Add(bytes)
}

func (m *Metrics) addMem(worker int, bytes int64) {
	m.memBytes[worker].Add(bytes)
}

// addRecovery charges one worker-failure recovery: the simulated
// redeployment delay d on the failed worker, one retry, and the stage's
// membership in the retried-stage set. The re-executed work itself
// re-charges CPU/spill through the normal counters.
func (m *Metrics) addRecovery(worker int, stage int64, d time.Duration) {
	m.recoveryNs[worker].Add(int64(d))
	m.retries.Add(1)
	m.mu.Lock()
	if m.retriedStages == nil {
		m.retriedStages = map[int64]struct{}{}
	}
	m.retriedStages[stage] = struct{}{}
	m.mu.Unlock()
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

func (m *Metrics) snapshot(cfg Config) MetricsSnapshot {
	m.mu.Lock()
	retriedStages := int64(len(m.retriedStages))
	m.mu.Unlock()
	s := MetricsSnapshot{
		Workers:       len(m.cpuElements),
		CPUElements:   make([]int64, len(m.cpuElements)),
		NetBytes:      make([]int64, len(m.netBytes)),
		SpillBytes:    make([]int64, len(m.spillBytes)),
		MemBytes:      make([]int64, len(m.memBytes)),
		Stages:        m.stages.Load(),
		Shuffles:      m.shuffles.Load(),
		Retries:       m.retries.Load(),
		RetriedStages: retriedStages,
		MemKills:      m.memKills.Load(),
	}
	cost := cfg.Cost()
	var worst time.Duration
	for w := range s.CPUElements {
		s.CPUElements[w] = m.cpuElements[w].Load()
		s.NetBytes[w] = m.netBytes[w].Load()
		s.SpillBytes[w] = m.spillBytes[w].Load()
		s.MemBytes[w] = m.memBytes[w].Load()
		recovery := time.Duration(m.recoveryNs[w].Load())
		s.TotalCPU += s.CPUElements[w]
		s.TotalNet += s.NetBytes[w]
		s.TotalSpill += s.SpillBytes[w]
		s.TotalMem += s.MemBytes[w]
		s.RecoveryTime += recovery
		if s.CPUElements[w] > s.MaxWorkerCPU {
			s.MaxWorkerCPU = s.CPUElements[w]
		}
		worst = max(worst, cost.Time(s.CPUElements[w], s.NetBytes[w], s.SpillBytes[w], recovery))
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
