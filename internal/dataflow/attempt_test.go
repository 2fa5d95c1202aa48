package dataflow

import (
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
)

// TestWithVariantsGiveEveryAttemptFreshState: FlatMapWith and JoinWith
// create the row function's state once per partition attempt. A retried
// attempt therefore starts from scratch - what a killed attempt built or
// counted is never carried over - and the recovered result equals the
// failure-free one even though the row functions are stateful.
func TestWithVariantsGiveEveryAttemptFreshState(t *testing.T) {
	const workers = 4
	key := func(x int) uint64 { return uint64(x) }
	run := func(plan *FaultPlan) (rows []int, factories int64, retries int64) {
		e := NewEnv(DefaultConfig(workers))
		e.InjectFaults(plan)
		var made atomic.Int64
		d := FromSlice(e, ints(400))
		// Stage 1: each row is tagged with how many rows its attempt has
		// seen before it.
		numbered := FlatMapWith(d, func(*Lane) func(int, func(int)) {
			made.Add(1)
			seen := 0
			return func(x int, emit func(int)) {
				emit(x*1000 + seen)
				seen++
			}
		}, 1)
		// Stages 2-4: shuffle both sides, then a stateful joiner.
		joined := JoinWith(numbered, numbered, key, key, func(*Lane) func(int, int, func(int)) {
			made.Add(1)
			pairs := 0
			return func(a, b int, emit func(int)) {
				pairs++
				emit(a + pairs)
			}
		}, RepartitionHash, 0)
		if err := e.Err(); err != nil {
			t.Fatal(err)
		}
		return joined.Collect(), made.Load(), e.Metrics().Retries
	}

	want, factories, _ := run(nil)
	if factories != 2*workers {
		t.Fatalf("failure-free run built %d row functions, want one per partition and stage (%d)", factories, 2*workers)
	}
	got, factories, retries := run(&FaultPlan{Kills: []Kill{
		{Stage: 1, Partition: 1, Times: 2},
		{Stage: 1, Partition: 3},
		{Stage: 2, Partition: 0},
		{Stage: 4, Partition: 2, Times: 2},
	}})
	if retries != 6 {
		t.Fatalf("retries = %d, want 6", retries)
	}
	// The shuffle's retry builds no row function; the other five do.
	if factories != 2*workers+5 {
		t.Fatalf("faulty run built %d row functions, want %d: one more per retried attempt", factories, 2*workers+5)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("recovered result differs: a retried attempt saw state of the attempt that was killed")
	}
}

// TestExchangePlacesInSourceOrder: the count-then-place shuffle must produce
// what bucket-and-concatenate produced - per destination, the sources in
// partition order and each source's elements in their order - because every
// downstream operator's row order, and so the result's, hangs on it.
func TestExchangePlacesInSourceOrder(t *testing.T) {
	for _, workers := range []int{2, 4, 7} {
		e := NewEnv(DefaultConfig(workers))
		data := ints(1000)
		d := FromSlice(e, data)
		key := func(x int) uint64 { return uint64(x % 13) }
		want := make([][]int, workers)
		for p := 0; p < workers; p++ {
			for _, x := range d.Partition(p) {
				q := int(mix64(key(x)) % uint64(workers))
				want[q] = append(want[q], x)
			}
		}
		out := shuffle(d, key)
		for q := 0; q < workers; q++ {
			got := out.Partition(q)
			if !slices.Equal(got, want[q]) {
				t.Fatalf("workers=%d partition %d:\n got  %v\n want %v", workers, q, got, want[q])
			}
			if cap(got) != len(got) {
				t.Fatalf("workers=%d partition %d: allocated %d slots for %d elements", workers, q, cap(got), len(got))
			}
		}
	}
}

// TestJoinProbeOrder: per probe row, the matching build rows come out in
// build order, whatever else shares their chain in the table.
func TestJoinProbeOrder(t *testing.T) {
	e := NewEnv(DefaultConfig(1))
	type row struct{ key, seq int }
	var build []row
	for seq := 0; seq < 300; seq++ {
		build = append(build, row{key: seq % 7, seq: seq})
	}
	probe := []int{3, 0, 3, 6, 9}
	out := Join(FromSlice(e, build), FromSlice(e, probe),
		func(r row) uint64 { return uint64(r.key) }, func(k int) uint64 { return uint64(k) },
		func(r row, k int, emit func([2]int)) { emit([2]int{k, r.seq}) }, RepartitionHash).Collect()
	var want [][2]int
	for _, k := range probe {
		for _, r := range build {
			if r.key == k {
				want = append(want, [2]int{k, r.seq})
			}
		}
	}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("join output order changed:\n got  %v\n want %v", out, want)
	}
}
