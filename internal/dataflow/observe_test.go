package dataflow

import (
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"gradoop/internal/obs"
)

// observedPipeline runs a fixed pipeline — map, filter, hash join (with a
// shuffle and a spilling build side), distinct — against a fresh Env and
// returns the collected output plus the env's metrics snapshot.
func observedPipeline(o *Observer) ([]int, MetricsSnapshot) {
	cfg := DefaultConfig(4)
	cfg.MemoryPerWorker = 2 << 20
	e := NewEnv(cfg)
	e.SetObserver(o)
	d := FromSlice(e, ints(2000))
	mapped := Map(d, func(x int) int { return x + 1 })
	filtered := Filter(mapped, func(x int) bool { return x%3 != 0 })
	build := make([]fatElem, 12)
	joined := Join(FromSlice(e, build), filtered,
		func(fatElem) uint64 { return 1 },
		func(x int) uint64 { return uint64(x % 5) },
		func(_ fatElem, x int, emit func(int)) { emit(x) }, RepartitionHash)
	out := Distinct(joined).Collect()
	sort.Ints(out)
	e.Finish()
	return out, e.Metrics()
}

// TestObserverParity: the identical pipeline with and without an installed
// observer produces identical results and an identical metrics snapshot —
// telemetry observes execution, it never alters it.
func TestObserverParity(t *testing.T) {
	r := obs.NewRegistry()
	withObs, mWith := observedPipeline(NewObserver(r))
	without, mWithout := observedPipeline(nil)

	if !reflect.DeepEqual(withObs, without) {
		t.Fatalf("observer changed query results:\nwith:    %v\nwithout: %v", withObs, without)
	}
	if !reflect.DeepEqual(mWith, mWithout) {
		t.Fatalf("observer changed engine metrics:\nwith:    %+v\nwithout: %+v", mWith, mWithout)
	}

	exp := r.Exposition()
	for _, want := range []string{
		"# TYPE gradoop_stage_duration_seconds summary",
		`gradoop_stage_duration_seconds{kind="Join",quantile="0.99"}`,
		`gradoop_stage_duration_seconds{kind="Shuffle",quantile="0.5"}`,
		"gradoop_stage_duration_seconds_count",
		"# TYPE gradoop_shuffle_bytes_total counter",
		"# TYPE gradoop_spill_bytes_total counter",
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("exposition missing %q:\n%s", want, exp)
		}
	}
	// The counters agree exactly with the engine's own accounting.
	obsShuffle := extractSample(t, exp, "gradoop_shuffle_bytes_total ")
	if obsShuffle != float64(mWith.TotalNet) {
		t.Errorf("shuffle bytes: registry=%v engine=%d", obsShuffle, mWith.TotalNet)
	}
	obsSpill := extractSample(t, exp, "gradoop_spill_bytes_total ")
	if obsSpill != float64(mWith.TotalSpill) {
		t.Errorf("spill bytes: registry=%v engine=%d", obsSpill, mWith.TotalSpill)
	}
	if mWith.TotalSpill == 0 {
		t.Error("pipeline was meant to spill; the spill-path hook went unexercised")
	}
	obsStages := extractSample(t, exp, "gradoop_stages_total ")
	if obsStages != float64(mWith.Stages) {
		t.Errorf("stages: registry=%v engine=%d", obsStages, mWith.Stages)
	}
}

// extractSample returns the value of the first exposition line starting with
// the given prefix (metric name plus trailing space for unlabelled samples).
func extractSample(t *testing.T, exposition, prefix string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, prefix) {
			v, err := strconv.ParseFloat(line[len(prefix):], 64)
			if err != nil {
				t.Fatalf("unparsable sample %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("no sample with prefix %q in:\n%s", prefix, exposition)
	return 0
}

// TestObserverCountsRetries: injected worker failures surface in the
// retries counter, matching the engine's own metric.
func TestObserverCountsRetries(t *testing.T) {
	r := obs.NewRegistry()
	cfg := DefaultConfig(2)
	cfg.FaultPlan = &FaultPlan{Kills: []Kill{{Stage: 1, Partition: 0, Times: 2}}}
	e := NewEnv(cfg)
	e.SetObserver(NewObserver(r))
	d := FromSlice(e, ints(100))
	Map(d, func(x int) int { return x })
	e.Finish()
	m := e.Metrics()
	if m.Retries == 0 {
		t.Fatal("fault plan injected no retries")
	}
	if got := extractSample(t, r.Exposition(), "gradoop_stage_retries_total "); got != float64(m.Retries) {
		t.Fatalf("retries: registry=%v engine=%d", got, m.Retries)
	}
}

// TestDisabledObserverHotPathNoAlloc: with no observer (and no tracer) the
// engine's telemetry hooks are pure nil checks — zero allocations, the same
// guarantee the nil trace collector gives — and a stage allocates nothing
// for its ledger: the rows, the totals and the closed stage are the job's,
// allocated once (two objects), written in place and zeroed when the stage
// closes.
func TestDisabledObserverHotPathNoAlloc(t *testing.T) {
	e := NewEnv(DefaultConfig(2))
	allocs := testing.AllocsPerRun(1000, func() {
		e.beginStage(kindFlatMap)
		e.charge(0, work{cpu: 10, rowsIn: 5, rowsOut: 5, spill: 50})
		e.charge(1, work{net: 100})
		e.chargeRetry(1, time.Microsecond)
		e.closeStage()
	})
	if allocs != 0 {
		t.Fatalf("disabled-telemetry hot path allocated %v per run", allocs)
	}
	if m := e.Metrics(); m.TotalCPU == 0 || m.TotalNet == 0 || m.TotalSpill == 0 || m.Retries == 0 || m.RetriedStages != m.Stages {
		t.Fatalf("the stages charged nothing to the ledger: %+v", m)
	}
	if allocs := testing.AllocsPerRun(100, e.ResetMetrics); allocs != 2 {
		t.Fatalf("a job's ledger is %v objects, want 2", allocs)
	}
}

// TestEnabledObserverHotPathNoAlloc: even with an observer installed the
// per-stage and per-charge hooks allocate nothing once the histogram
// children exist.
func TestEnabledObserverHotPathNoAlloc(t *testing.T) {
	r := obs.NewRegistry()
	e := NewEnv(DefaultConfig(2))
	e.SetObserver(NewObserver(r))
	e.beginStage(kindFlatMap) // warm the "FlatMap" histogram child
	e.closeStage()
	allocs := testing.AllocsPerRun(1000, func() {
		e.beginStage(kindFlatMap)
		e.charge(1, work{net: 100})
		e.charge(0, work{spill: 50})
		e.closeStage()
	})
	if allocs != 0 {
		t.Fatalf("enabled-telemetry hot path allocated %v per run", allocs)
	}
}

// TestCloneIsDeep: Clone copies the per-worker slices and preserves Jobs
// exactly (unlike Merge, which counts a raw snapshot as one job).
func TestCloneIsDeep(t *testing.T) {
	e := NewEnv(DefaultConfig(3))
	Map(FromSlice(e, ints(50)), func(x int) int { return x })
	s := e.Metrics()
	c := s.Clone()
	if !reflect.DeepEqual(s, c) {
		t.Fatalf("clone differs:\norig:  %+v\nclone: %+v", s, c)
	}
	if c.Jobs != 0 {
		t.Fatalf("clone invented jobs: %d", c.Jobs)
	}
	c.CPUElements[0] += 999
	if s.CPUElements[0] == c.CPUElements[0] {
		t.Fatal("clone aliases the original's slices")
	}
}
