package session

import (
	"sort"
	"sync"
	"time"

	"gradoop/internal/dataflow"
	"gradoop/internal/trace"
)

// job is one live Execute call in the session's in-flight table. The env
// pointer is published under the table's mutex once the query holds a slot;
// reading progress from it afterwards is safe (CurrentStage may be called
// while the job runs).
type job struct {
	id      uint64
	traceID string
	query   string
	started time.Time

	mu      sync.Mutex
	running bool
	env     *dataflow.Env
	col     *trace.Collector
}

// jobTable tracks in-flight queries for live introspection (/jobs).
type jobTable struct {
	mu     sync.Mutex
	nextID uint64
	jobs   map[uint64]*job
}

func newJobTable() *jobTable {
	return &jobTable{jobs: map[uint64]*job{}}
}

// add registers a query entering the session (queued state) and returns its
// table entry.
func (t *jobTable) add(traceID, query string) *job {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	j := &job{id: t.nextID, traceID: traceID, query: query, started: time.Now()}
	t.jobs[j.id] = j
	return j
}

// start transitions a job to running once it holds a slot and has an
// environment to report progress from.
func (j *job) start(env *dataflow.Env, col *trace.Collector) {
	j.mu.Lock()
	j.running, j.env, j.col = true, env, col
	j.mu.Unlock()
}

// remove drops a finished (or failed, or rejected) job from the table.
func (t *jobTable) remove(j *job) {
	t.mu.Lock()
	delete(t.jobs, j.id)
	t.mu.Unlock()
}

// PartProgress is one partition's live contribution to the current stage of
// an in-flight query.
type PartProgress struct {
	RowsIn  int64 `json:"rowsIn"`
	RowsOut int64 `json:"rowsOut"`
}

// JobInfo is the live view of one in-flight query.
type JobInfo struct {
	ID      uint64 `json:"id"`
	TraceID string `json:"traceId,omitempty"`
	// Query is the canonicalized query text.
	Query   string        `json:"query"`
	State   string        `json:"state"` // "queued" | "running"
	Started time.Time     `json:"started"`
	Elapsed time.Duration `json:"elapsedNs"`
	// Stage is the 1-based number of the stage currently executing and Kind
	// names the running transformation, both read off the environment.
	Stage int64  `json:"stage,omitempty"`
	Kind  string `json:"kind,omitempty"`
	// Op is the physical-plan operator the current stage belongs to, filled
	// for traced requests only, from the trace collector. Parts is the
	// stage's per-partition progress, read off the environment's open
	// stage.
	Op    string         `json:"op,omitempty"`
	Parts []PartProgress `json:"parts,omitempty"`
}

// Jobs returns a snapshot of every in-flight query, oldest first. Progress
// fields are read live from each query's running environment and - the
// operator, for traced requests - its trace collector.
func (s *Session) Jobs() []JobInfo {
	s.jobs.mu.Lock()
	live := make([]*job, 0, len(s.jobs.jobs))
	for _, j := range s.jobs.jobs {
		live = append(live, j)
	}
	s.jobs.mu.Unlock()

	out := make([]JobInfo, 0, len(live))
	for _, j := range live {
		j.mu.Lock()
		running, env, col := j.running, j.env, j.col
		j.mu.Unlock()
		info := JobInfo{
			ID:      j.id,
			TraceID: j.traceID,
			Query:   j.query,
			State:   "queued",
			Started: j.started,
			Elapsed: time.Since(j.started),
		}
		if running {
			info.State = "running"
			if env != nil {
				var parts []trace.PartStats
				info.Stage, info.Kind, parts = env.CurrentStage()
				if len(parts) > 0 {
					info.Parts = make([]PartProgress, len(parts))
					for p, ps := range parts {
						info.Parts[p] = PartProgress{RowsIn: ps.RowsIn, RowsOut: ps.RowsOut}
					}
				}
			}
			if col != nil {
				info.Op = col.Current()
			}
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}
