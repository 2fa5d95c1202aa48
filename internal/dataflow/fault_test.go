package dataflow

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
)

// TestPanicContainment: a panic in a UDF must not crash the process; it is
// recovered into a JobError carrying the stage, the partition and a stack,
// and the environment reports the failure.
func TestPanicContainment(t *testing.T) {
	env := NewEnv(DefaultConfig(4))
	d := FromSlice(env, []int{1, 2, 3, 4, 5, 6, 7, 8})
	out := Map(d, func(v int) int {
		if v == 6 {
			panic("bad predicate")
		}
		return v * 2
	})
	if !env.Failed() {
		t.Fatal("env should be failed after a UDF panic")
	}
	var je *JobError
	if err := env.Err(); !errors.As(err, &je) {
		t.Fatalf("want *JobError, got %T: %v", err, err)
	}
	if je.Stage != 1 {
		t.Errorf("panic in the first transformation should report stage 1, got %d", je.Stage)
	}
	if len(je.Stack) == 0 {
		t.Error("JobError should capture the goroutine stack")
	}
	if je.Error() == "" || len(je.Error()) > 200 {
		t.Errorf("Error() should be a short single line, got %q", je.Error())
	}
	// The failed stage's output must not leak partial results downstream.
	if n := out.Count(); n >= 8 {
		t.Errorf("failed stage should not deliver all outputs, got %d", n)
	}
}

// TestShortCircuitAfterFailure: once an env failed, subsequent
// transformations are skipped entirely (no stages charged, empty outputs).
func TestShortCircuitAfterFailure(t *testing.T) {
	env := NewEnv(DefaultConfig(2))
	d := FromSlice(env, []int{1, 2, 3})
	Map(d, func(int) int { panic("boom") })
	stages := env.Metrics().Stages
	calls := 0
	out := Map(d, func(v int) int { calls++; return v })
	out = Filter(out, func(int) bool { return true })
	out = PartitionByKey(out, func(v int) uint64 { return uint64(v) })
	if calls != 0 {
		t.Errorf("UDF ran %d times on a failed env", calls)
	}
	if !out.IsEmpty() {
		t.Error("transformations on a failed env must return empty datasets")
	}
	if got := env.Metrics().Stages; got != stages {
		t.Errorf("failed env charged %d extra stages", got-stages)
	}
}

// TestBeginClearsFailure: a new job on the same env starts clean.
func TestBeginClearsFailure(t *testing.T) {
	env := NewEnv(DefaultConfig(2))
	Map(FromSlice(env, []int{1}), func(int) int { panic("boom") })
	if env.Err() == nil {
		t.Fatal("expected failure")
	}
	env.Begin(nil)
	if env.Failed() || env.Err() != nil {
		t.Fatal("Begin must clear the previous job's failure")
	}
	got := Map(FromSlice(env, []int{1, 2}), func(v int) int { return v + 1 }).Collect()
	if !reflect.DeepEqual(got, []int{2, 3}) {
		t.Fatalf("post-Begin job broken: %v", got)
	}
}

// TestEnvMismatch: every transformation that combines datasets refuses
// operands from different environments with a typed error instead of
// silently corrupting state. This is the whole of the check: the static copy
// of it (the envmix analyzer) is gone, and its table is this one.
func TestEnvMismatch(t *testing.T) {
	key := func(v int) uint64 { return uint64(v) }
	sum := func(l, r int, emit func(int)) { emit(l + r) }
	for _, tc := range []struct {
		name string
		run  func(a *Dataset[int], b *Dataset[int]) *Env
	}{
		{"Union", func(a, b *Dataset[int]) *Env { return Union(a, b).Env() }},
		{"UnionAll third operand", func(a, b *Dataset[int]) *Env {
			return UnionAll(a, Map(a, func(v int) int { return v }), b).Env()
		}},
		{"Join", func(a, b *Dataset[int]) *Env { return Join(a, b, key, key, sum, RepartitionHash).Env() }},
		{"Join broadcast", func(a, b *Dataset[int]) *Env { return Join(a, b, key, key, sum, BroadcastLeft).Env() }},
		{"OuterJoinWith", func(a, b *Dataset[int]) *Env { return OuterJoinWith(a, b, key, key, leftOuter).Env() }},
		{"SemiJoinWith", func(a, b *Dataset[int]) *Env { return SemiJoinWith(a, b, key, key, semi).Env() }},
		{"Probe against another env's Build", func(a, b *Dataset[int]) *Env {
			return Probe(Build(a, key), b, key, func(*Lane) func(int, int, func(int)) { return sum }).Env()
		}},
		{"BulkIteration foreign seed", func(a, b *Dataset[int]) *Env {
			return BulkIteration(a, b, 3, func(_ int, working *Dataset[int]) (*Dataset[int], *Dataset[int]) {
				return nil, working
			}).Env()
		}},
		{"BulkIteration foreign seed, no superstep", func(a, b *Dataset[int]) *Env {
			return BulkIteration(Empty[int](a.Env()), b, 3, func(int, *Dataset[int]) (*Dataset[int], *Dataset[int]) {
				panic("an empty working set runs no superstep")
			}).Env()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			envA := NewEnv(DefaultConfig(2))
			envB := NewEnv(DefaultConfig(2))
			a := FromSlice(envA, []int{1, 2, 3})
			b := FromSlice(envB, []int{4, 5, 6})
			out := tc.run(a, b)
			if err := out.Err(); !errors.Is(err, ErrEnvMismatch) {
				t.Fatalf("want ErrEnvMismatch, got %v", err)
			}
			if !errors.Is(envB.Err(), ErrEnvMismatch) {
				t.Error("the other operand's env should be failed too")
			}
		})
	}
}

// TestCancellationPrompt: cancelling the job context aborts a long-running
// transformation within the per-element polling latency, not at the end.
func TestCancellationPrompt(t *testing.T) {
	env := NewEnv(DefaultConfig(4))
	data := make([]int, 1<<16)
	d := FromSlice(env, data)

	ctx, cancel := context.WithCancel(context.Background())
	env.Begin(ctx)
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	// ~65k elements × 50µs ≈ 0.8s per worker without cancellation.
	Map(d, func(v int) int {
		time.Sleep(50 * time.Microsecond)
		return v
	})
	elapsed := time.Since(start)
	if err := env.Finish(); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed > 500*time.Millisecond {
		t.Errorf("cancellation took %s, want prompt abort", elapsed)
	}
}

// TestDeadlineViaNewEnvContext: a deadline on the env context fails the job
// with context.DeadlineExceeded while keeping partial metrics readable.
func TestDeadlineViaNewEnvContext(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	env := NewEnvContext(ctx, DefaultConfig(2))
	d := FromSlice(env, make([]int, 1<<16))
	Map(d, func(v int) int { time.Sleep(50 * time.Microsecond); return v })
	if err := env.Finish(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if env.Metrics().Stages == 0 {
		t.Error("partial metrics should remain readable after a timeout")
	}
}

// faultyPipeline is a small multi-stage job (map, shuffle-join, reduce)
// whose result is deterministic, used to compare faulty vs fault-free runs.
func faultyPipeline(env *Env) []KV[int, int] {
	n := 4096
	data := make([]int, n)
	for i := range data {
		data[i] = i
	}
	d := FromSlice(env, data)
	doubled := Map(d, func(v int) int { return v * 2 })
	joined := Join(doubled, d,
		func(v int) uint64 { return uint64(v % 64) },
		func(v int) uint64 { return uint64(v % 64) },
		func(l, r int, emit func(int)) {
			if l%64 == r%64 {
				emit(l + r)
			}
		}, RepartitionHash)
	reduced := ReduceByKey(joined,
		func(v int) int { return v % 16 },
		func(a, b int) int { return a + b })
	out := reduced.Collect()
	return out
}

// TestFaultInjectionRecovery: injected worker kills are recovered by
// re-executing the lost partitions; the result is bit-identical to a
// fault-free run and the metrics expose the retries and their cost.
func TestFaultInjectionRecovery(t *testing.T) {
	clean := NewEnv(DefaultConfig(4))
	want := faultyPipeline(clean)
	cleanTime := clean.Metrics().SimTime

	env := NewEnv(DefaultConfig(4))
	env.InjectFaults(&FaultPlan{Kills: []Kill{
		{Stage: 1, Partition: 0},
		{Stage: 2, Partition: 3},
		{Stage: 3, Partition: 1, Times: 2},
		{Stage: 4, Partition: 2},
	}})
	got := faultyPipeline(env)
	if err := env.Err(); err != nil {
		t.Fatalf("recovery should be transparent, got %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("faulty run differs from fault-free run")
	}
	m := env.Metrics()
	if m.Retries != 5 {
		t.Errorf("want 5 retries (4 kill points, one double), got %d", m.Retries)
	}
	if m.RetriedStages != 4 {
		t.Errorf("want 4 retried stages, got %d", m.RetriedStages)
	}
	if m.RecoveryTime == 0 {
		t.Error("recovery time should be charged")
	}
	if m.SimTime <= cleanTime {
		t.Errorf("recovery must cost simulated time: faulty %s <= clean %s", m.SimTime, cleanTime)
	}
}

// TestRetriesExhausted: a worker that keeps dying past the retry budget
// fails the job with a JobError naming the stage and partition.
func TestRetriesExhausted(t *testing.T) {
	env := NewEnv(DefaultConfig(2))
	env.InjectFaults(&FaultPlan{
		MaxRetries: 2,
		Kills:      []Kill{{Stage: 1, Partition: 1, Times: 100}},
	})
	Map(FromSlice(env, []int{1, 2, 3, 4}), func(v int) int { return v })
	var je *JobError
	if err := env.Err(); !errors.As(err, &je) {
		t.Fatalf("want *JobError, got %v", err)
	}
	if je.Stage != 1 || je.Partition != 1 {
		t.Errorf("JobError should name stage 1 / partition 1, got stage %d / partition %d", je.Stage, je.Partition)
	}
	if env.Metrics().Retries != 2 {
		t.Errorf("want exactly MaxRetries=2 retries before giving up, got %d", env.Metrics().Retries)
	}
}

// TestRandomKillsDeterministic: the seeded kill generator is reproducible
// and respects its bounds.
func TestRandomKillsDeterministic(t *testing.T) {
	a := RandomKills(7, 16, 12, 4)
	b := RandomKills(7, 16, 12, 4)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed must yield the same kill schedule")
	}
	for _, k := range a {
		if k.Stage < 1 || k.Stage > 12 || k.Partition < 0 || k.Partition >= 4 {
			t.Fatalf("kill out of bounds: %+v", k)
		}
	}
	if reflect.DeepEqual(a, RandomKills(8, 16, 12, 4)) {
		t.Fatal("different seeds should differ")
	}
}

// TestRecoveryPreservesShuffleDeterminism: kills during a shuffle stage must
// not perturb the deterministic destination-partition concatenation order.
func TestRecoveryPreservesShuffleDeterminism(t *testing.T) {
	run := func(plan *FaultPlan) []int {
		env := NewEnv(DefaultConfig(8))
		env.InjectFaults(plan)
		data := make([]int, 10000)
		for i := range data {
			data[i] = i * 31
		}
		s := PartitionByKey(FromSlice(env, data), func(v int) uint64 { return uint64(v) })
		if err := env.Err(); err != nil {
			t.Fatalf("unexpected failure: %v", err)
		}
		return s.Collect()
	}
	want := run(nil)
	got := run(&FaultPlan{Kills: []Kill{{Stage: 1, Partition: 2}, {Stage: 1, Partition: 5, Times: 3}}})
	if !reflect.DeepEqual(got, want) {
		t.Fatal("shuffle output order changed under injected failures")
	}
}
