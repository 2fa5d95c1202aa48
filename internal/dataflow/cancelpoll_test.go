package dataflow

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// TestGroupingOpsPollCancellation is the regression test for the ctxpoll
// findings: the per-partition loops of DistinctBy, ReduceByKey, GroupBy and
// an outer join must poll cancellation, so a context cancelled mid-loop stops the
// work within the cancelCheckMask window instead of finishing the pass.
//
// The test runs on a single worker deliberately: the one-partition shuffle
// fast path performs no key calls and there is exactly one partition
// goroutine, so the first key call of every grouping loop lands after
// runStage's entry abort check — the only thing that can stop the loop
// afterwards is the loop's own poll. (With several workers, partitions that
// happen to start after the cancel are stopped by the entry check and mask
// a missing in-loop poll.) Each case counts user key-function invocations,
// cancels the context 10k calls in, and asserts the loop stopped within the
// polling window rather than finishing the full pass.
func TestGroupingOpsPollCancellation(t *testing.T) {
	const n = 100_000
	const trigger = 10_000
	data := make([]int, n)
	for i := range data {
		data[i] = i
	}

	cases := []struct {
		name string
		// maxCalls is the ceiling the polled implementation must stay under;
		// an unpolled loop runs the full pass (n calls, 3n for a join's build,
		// count and probe loops) and exceeds it.
		maxCalls int64
		run      func(d *Dataset[int], key func(int) int)
	}{
		{
			name: "DistinctBy", maxCalls: 60_000,
			run: func(d *Dataset[int], key func(int) int) {
				DistinctBy(d, key)
			},
		},
		{
			name: "ReduceByKey", maxCalls: 60_000,
			run: func(d *Dataset[int], key func(int) int) {
				ReduceByKey(d, key, func(a, b int) int { return a + b })
			},
		},
		{
			name: "GroupBy", maxCalls: 60_000,
			run: func(d *Dataset[int], key func(int) int) {
				GroupBy(d, key, func(k int, group []int, emit func(int)) { emit(len(group)) })
			},
		},
		{
			name: "OuterJoinWith", maxCalls: 60_000,
			run: func(d *Dataset[int], key func(int) int) {
				k := func(v int) uint64 { return uint64(key(v)) }
				OuterJoinWith(d, d, k, k, leftOuter)
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			env := NewEnvContext(ctx, DefaultConfig(1))
			d := FromSlice(env, data)
			var calls atomic.Int64
			key := func(v int) int {
				if calls.Add(1) == trigger {
					cancel()
				}
				return v % 64
			}
			tc.run(d, key)
			if err := env.Err(); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancellation never observed by the op's loops: env.Err() = %v", err)
			}
			if got := calls.Load(); got > tc.maxCalls {
				t.Fatalf("op kept working after cancellation: %d key calls, want <= %d", got, tc.maxCalls)
			}
		})
	}
}
