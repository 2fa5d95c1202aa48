package dataflow

import (
	"testing"

	"gradoop/internal/trace"
)

// TestTraceSpansMatchStages: every transformation the metrics count as a
// stage must produce exactly one span, in execution order, with the right
// kind, shuffle flag and row counts.
func TestTraceSpansMatchStages(t *testing.T) {
	env := NewEnv(DefaultConfig(4))
	col := trace.NewCollector()
	env.SetTracer(col)
	defer env.SetTracer(nil)

	data := make([]int, 1000)
	for i := range data {
		data[i] = i
	}
	d := FromSlice(env, data)
	doubled := FlatMap(d, func(v int, emit func(int)) { emit(v); emit(v + 1) })
	shuffled := PartitionByKey(doubled, func(v int) uint64 { return uint64(v) })
	if err := env.Finish(); err != nil {
		t.Fatal(err)
	}
	if got := shuffled.Count(); got != 2000 {
		t.Fatalf("count = %d, want 2000", got)
	}

	m := env.Metrics()
	spans := col.Spans()
	if int64(len(spans)) != m.Stages {
		t.Fatalf("got %d spans for %d counted stages", len(spans), m.Stages)
	}
	if spans[0].Kind != "FlatMap" || spans[0].Shuffle {
		t.Errorf("span 1 = %s/shuffle=%v, want FlatMap/false", spans[0].Kind, spans[0].Shuffle)
	}
	if spans[1].Kind != "Shuffle" || !spans[1].Shuffle {
		t.Errorf("span 2 = %s/shuffle=%v, want Shuffle/true", spans[1].Kind, spans[1].Shuffle)
	}
	if in, out := spans[0].Rows(); in != 1000 || out != 2000 {
		t.Errorf("FlatMap rows = %d/%d, want 1000/2000", in, out)
	}
	if in, out := spans[1].Rows(); in != 2000 || out != 2000 {
		t.Errorf("Shuffle rows = %d/%d, want 2000/2000", in, out)
	}

	// Per-span cost mirrors must sum to the job-level counters.
	var cpu, net int64
	for _, s := range spans {
		for _, p := range s.Parts {
			cpu += p.CPUElements
			net += p.NetBytes
		}
	}
	if cpu != m.TotalCPU {
		t.Errorf("span CPU sum %d != metrics TotalCPU %d", cpu, m.TotalCPU)
	}
	if net != m.TotalNet {
		t.Errorf("span net sum %d != metrics TotalNet %d", net, m.TotalNet)
	}
	if net == 0 {
		t.Error("shuffle recorded no network bytes")
	}
}

// TestTraceRetrySpans: injected worker failures must appear as distinct
// failed attempts plus per-partition retry counts, and the retried
// partition's rows must not be double counted.
func TestTraceRetrySpans(t *testing.T) {
	env := NewEnv(DefaultConfig(4))
	env.InjectFaults(&FaultPlan{Kills: []Kill{{Stage: 1, Partition: 2, Times: 2}}})
	col := trace.NewCollector()
	env.SetTracer(col)
	defer env.SetTracer(nil)

	data := make([]int, 400)
	for i := range data {
		data[i] = i
	}
	out := FlatMap(FromSlice(env, data), func(v int, emit func(int)) { emit(v) })
	if err := env.Finish(); err != nil {
		t.Fatal(err)
	}
	if got := out.Count(); got != 400 {
		t.Fatalf("count = %d, want 400", got)
	}

	spans := col.Spans()
	s := spans[0]
	if s.Retries() != 2 {
		t.Errorf("span retries = %d, want 2", s.Retries())
	}
	if m := env.Metrics(); m.Retries != s.Retries() {
		t.Errorf("metrics retries %d != span retries %d", m.Retries, s.Retries())
	}
	var failed, onPart2 int
	for _, a := range s.Attempts {
		if a.Part == 2 {
			onPart2++
		}
		if a.Failed {
			failed++
			if a.Part != 2 {
				t.Errorf("failed attempt on partition %d, want 2", a.Part)
			}
		}
	}
	if failed != 2 || onPart2 != 3 {
		t.Errorf("got %d failed / %d partition-2 attempts, want 2 failed of 3 total", failed, onPart2)
	}
	if in, out := s.Rows(); in != 400 || out != 400 {
		t.Errorf("rows = %d/%d, want 400/400 (retries must not double count)", in, out)
	}
	if s.Parts[2].Recovery <= 0 {
		t.Error("retried partition has no recovery time charged")
	}
}

// TestTraceIterationMark: stages inside a bulk iteration carry the
// superstep number.
func TestTraceIterationMark(t *testing.T) {
	env := NewEnv(DefaultConfig(2))
	col := trace.NewCollector()
	env.SetTracer(col)
	defer env.SetTracer(nil)

	d := FromSlice(env, []int{1, 2, 3})
	it := BulkIteration(d, nil, 3, func(_ int, working *Dataset[int]) (*Dataset[int], *Dataset[int]) {
		next := FlatMap(working, func(v int, emit func(int)) { emit(v + 1) })
		return next, nil
	})
	if err := env.Finish(); err != nil {
		t.Fatal(err)
	}
	if got := it.Collect(); len(got) != 0 {
		t.Fatalf("iteration emitted %v, want no results (nil per-superstep results)", got)
	}
	its := map[int]bool{}
	for _, s := range col.Spans() {
		its[s.Iteration] = true
	}
	for want := 1; want <= 3; want++ {
		if !its[want] {
			t.Errorf("no span recorded for superstep %d (got %v)", want, its)
		}
	}
}
