package session

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"gradoop/internal/dataflow"
)

// counters is what the session counts beside its instruments, which hold the
// request and cache counts: the query-store records it appended, and the
// running merge of every job's metrics snapshot (job-slot accounting
// included) under a mutex.
type counters struct {
	// qstoreRecords counts the records this session appended (the store's
	// own counter also includes startup replay).
	qstoreRecords atomic.Int64

	mu      sync.Mutex
	cluster dataflow.MetricsSnapshot
}

// mergeJob folds one finished job's snapshot into the running cluster
// total.
func (c *counters) mergeJob(m dataflow.MetricsSnapshot) {
	c.mu.Lock()
	c.cluster.Merge(m)
	c.mu.Unlock()
}

// Metrics is an immutable snapshot of a session's service counters.
type Metrics struct {
	// Queries counts Execute calls that have returned; Rejected, Timeouts,
	// Invalid, Failed and MemoryKilled partition the failures among them.
	Queries      int64 `json:"queries"`
	Rejected     int64 `json:"rejected"`
	Timeouts     int64 `json:"timeouts"`
	Invalid      int64 `json:"invalid"`
	Failed       int64 `json:"failed"`
	MemoryKilled int64 `json:"memoryKilled"`

	// Plan/Result cache hit and miss counters.
	PlanHits     int64 `json:"planHits"`
	PlanMisses   int64 `json:"planMisses"`
	ResultHits   int64 `json:"resultHits"`
	ResultMisses int64 `json:"resultMisses"`
	// PlanEntries, ResultEntries and ResultBytes describe current cache
	// occupancy.
	PlanEntries   int   `json:"planEntries"`
	ResultEntries int   `json:"resultEntries"`
	ResultBytes   int64 `json:"resultBytes"`

	// InFlight and Queued describe current admission state.
	InFlight int   `json:"inFlight"`
	Queued   int64 `json:"queued"`

	// Memory governance: the process budget, currently reserved bytes, and
	// the broker's kill/shed/brownout counters (all zero when governance is
	// disabled). MemReserved is a point-in-time gauge; the rest are
	// monotonic.
	MemBudget    int64 `json:"memBudget"`
	MemReserved  int64 `json:"memReserved"`
	MemKills     int64 `json:"memKills"`
	MemSheds     int64 `json:"memSheds"`
	MemBrownouts int64 `json:"memBrownouts"`

	// SlowQueries counts queries over the slow-query threshold (the JSON
	// twin of gradoop_slow_queries_total).
	SlowQueries int64 `json:"slowQueries"`

	// Query store (all zero when no store is configured): records this
	// session emitted, total records the store holds (startup replay
	// included), drift onsets flagged, current segment footprint
	// (bytes/segments/fingerprints) and dropped writes.
	QStoreRecords      int64 `json:"qstoreRecords"`
	QStoreTotal        int64 `json:"qstoreTotalRecords"`
	QStoreRegressions  int64 `json:"qstoreRegressions"`
	QStoreBytes        int64 `json:"qstoreBytes"`
	QStoreSegments     int   `json:"qstoreSegments"`
	QStoreFingerprints int   `json:"qstoreFingerprints"`
	QStoreDrops        int64 `json:"qstoreDroppedWrites"`

	// StatsCollections counts the times this session collected statistics:
	// once per graph generation.
	StatsCollections int64 `json:"statsCollections"`

	// Cluster is the merged dataflow accounting of every executed job:
	// Jobs counts them, SlotWait accumulates admission queueing.
	Cluster dataflow.MetricsSnapshot `json:"cluster"`
}

// Metrics returns the session's current service counters, the request and
// cache counts read off its instruments. The cluster aggregate is deep-copied
// under the merge lock (MetricsSnapshot.Clone), so a snapshot taken while
// queries are completing is never torn: its slices are the serializer's own,
// and its totals are one consistent merge state — concurrent mergeJob calls
// either fully precede or fully follow it.
func (s *Session) Metrics() Metrics {
	c, in := s.metrics, s.obs
	c.mu.Lock()
	cluster := c.cluster.Clone()
	c.mu.Unlock()
	resultBytes, resultEntries := s.results.usage()
	qs := s.qstore.Stats()
	exited := func(x exit) int64 { return in.errors.Value(exits[x].kind.String()) }
	return Metrics{
		Queries:            in.queries.Value(),
		Rejected:           exited(exitRejected),
		Timeouts:           exited(exitTimeout),
		Invalid:            exited(exitInvalid),
		Failed:             exited(exitFailed),
		MemoryKilled:       exited(exitMemoryKill),
		MemBudget:          s.broker.Budget(),
		MemReserved:        s.broker.Reserved(),
		MemKills:           s.broker.Kills(),
		MemSheds:           s.broker.Sheds(),
		MemBrownouts:       s.broker.Brownouts(),
		SlowQueries:        in.slowQueries.Value(),
		QStoreRecords:      c.qstoreRecords.Load(),
		QStoreTotal:        qs.Records,
		QStoreRegressions:  qs.Regressions,
		QStoreBytes:        qs.Bytes,
		QStoreSegments:     qs.Segments,
		QStoreFingerprints: qs.Fingerprints,
		QStoreDrops:        qs.Drops,
		PlanHits:           in.planCache.Value("hit"),
		PlanMisses:         in.planCache.Value("miss"),
		ResultHits:         in.resultCache.Value("hit"),
		ResultMisses:       in.resultCache.Value("miss"),
		PlanEntries:        s.plans.Len(),
		ResultEntries:      resultEntries,
		ResultBytes:        resultBytes,
		InFlight:           s.gate.inFlight(),
		Queued:             s.gate.queued(),
		StatsCollections:   int64(s.snapshot().generation),
		Cluster:            cluster,
	}
}

// PlanHitRatio is hits/(hits+misses), 0 when the cache is untouched.
func (m Metrics) PlanHitRatio() float64 { return ratio(m.PlanHits, m.PlanMisses) }

// ResultHitRatio is hits/(hits+misses), 0 when the cache is untouched.
func (m Metrics) ResultHitRatio() float64 { return ratio(m.ResultHits, m.ResultMisses) }

func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// Text renders the metrics in the -metrics text style of the CLI.
func (m Metrics) Text() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "queries=%d rejected=%d timeouts=%d invalid=%d failed=%d memKilled=%d\n",
		m.Queries, m.Rejected, m.Timeouts, m.Invalid, m.Failed, m.MemoryKilled)
	if m.MemBudget > 0 {
		fmt.Fprintf(&sb, "memory: budget=%d reserved=%d kills=%d sheds=%d brownouts=%d\n",
			m.MemBudget, m.MemReserved, m.MemKills, m.MemSheds, m.MemBrownouts)
	}
	fmt.Fprintf(&sb, "plan cache: hits=%d misses=%d ratio=%.2f entries=%d\n",
		m.PlanHits, m.PlanMisses, m.PlanHitRatio(), m.PlanEntries)
	fmt.Fprintf(&sb, "result cache: hits=%d misses=%d ratio=%.2f entries=%d bytes=%d\n",
		m.ResultHits, m.ResultMisses, m.ResultHitRatio(), m.ResultEntries, m.ResultBytes)
	fmt.Fprintf(&sb, "admission: inFlight=%d queued=%d slotWait=%s\n",
		m.InFlight, m.Queued, m.Cluster.SlotWait)
	if m.QStoreTotal > 0 || m.QStoreRecords > 0 {
		fmt.Fprintf(&sb, "query store: records=%d total=%d regressions=%d bytes=%d segments=%d fingerprints=%d drops=%d\n",
			m.QStoreRecords, m.QStoreTotal, m.QStoreRegressions, m.QStoreBytes,
			m.QStoreSegments, m.QStoreFingerprints, m.QStoreDrops)
	}
	fmt.Fprintf(&sb, "stats collections: %d\n", m.StatsCollections)
	fmt.Fprintf(&sb, "cluster: jobs=%d %s\n", m.Cluster.Jobs, m.Cluster.String())
	return sb.String()
}
