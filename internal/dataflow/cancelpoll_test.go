package dataflow

import (
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"gradoop/internal/govern"
)

// pollRow is one row of the cancellation table. run drives one exported
// function of the package on env and calls hit from the callbacks the row
// counts; the table cancels the job's context on the trigger-th hit. A row
// bounds what follows the cancel by max, the hits allowed in all, or - for a
// loop that calls no callback, whose only trace is the rows it emits - by
// maxBytes, the heap bytes allocated between the cancel and run's return.
type pollRow struct {
	name string
	// workers is 1 unless the loop under test runs only behind a shuffle of
	// several partitions: the one-partition shuffle calls no key function and
	// there is one partition goroutine, so every counted call lands after
	// runStage's entry abort check and only the loop's own poll can stop it.
	workers  int
	governed bool // MapPartition polls through emit, and only under a governor
	trigger  int64
	max      int64
	maxBytes uint64
	run      func(env *Env, hit func())
}

// Sizes of the table: n elements, a cancel 10 000 calls in, and room after it
// for four polling windows - one per loop and partition that may still be
// running when the context closes. An unpolled loop runs on to its partition's
// end, 25 000 calls or more.
const (
	pollN      = 100_000
	pollCancel = 10_000
	pollMax    = pollCancel + 4*(cancelCheckMask+1)
	// pollBytes bounds the bytes an emitting loop allocates after the cancel:
	// a polled loop emits at most one window of 16-byte rows; an unpolled one
	// grows its output to every key's row, megabytes.
	pollBytes = 64 << 10
)

// pollExempt is the exported functions with a function argument that the
// table leaves out, and why.
var pollExempt = map[string]string{
	"BulkIteration": "its body runs once per superstep on the driving goroutine, and the loop checks env.Failed between supersteps",
}

// sizedRow is a MapPartition output whose SizeBytes - what a governed emit
// asks of every row it keeps - is the counted call.
type sizedRow struct{ hit func() }

func (r sizedRow) SizeBytes() int { r.hit(); return 16 }

// pollRows is the cancellation table.
var pollRows = []pollRow{
	{name: "Map", run: func(env *Env, hit func()) {
		Map(FromSlice(env, ints(pollN)), func(v int) int { hit(); return v })
	}},
	{name: "Filter", run: func(env *Env, hit func()) {
		Filter(FromSlice(env, ints(pollN)), func(int) bool { hit(); return true })
	}},
	{name: "FlatMap", run: func(env *Env, hit func()) {
		FlatMap(FromSlice(env, ints(pollN)), func(v int, emit func(int)) { hit(); emit(v) })
	}},
	{name: "FlatMapWith", run: func(env *Env, hit func()) {
		FlatMapWith(FromSlice(env, ints(pollN)), func(*Lane) func(int, func(int)) {
			return func(v int, emit func(int)) { hit(); emit(v) }
		})
	}},
	// One element whose work - a row emitted per unit - is all in the function:
	// only the function's own poll runs there.
	{name: "FlatMapPolled", run: func(env *Env, hit func()) {
		FlatMapPolled(FromSlice(env, []int{0}), func(*Lane) func(int, func(int), func() bool) {
			return func(_ int, emit func(int), poll func() bool) {
				for i := 0; i < pollN; i++ {
					hit()
					if emit(i); !poll() {
						return
					}
				}
			}
		})
	}},
	{name: "MapPartition", governed: true, run: func(env *Env, hit func()) {
		MapPartition(FromSlice(env, ints(pollN)), func(part []int, emit func(sizedRow)) {
			for range part {
				emit(sizedRow{hit})
			}
		})
	}},
	// The build loop.
	{name: "Join/RepartitionHash", run: func(env *Env, hit func()) {
		d := FromSlice(env, ints(pollN))
		Join(d, d, func(v int) uint64 { hit(); return uint64(v) }, stageKey, emitSum, RepartitionHash)
	}},
	{name: "Join/BroadcastLeft", run: func(env *Env, hit func()) {
		d := FromSlice(env, ints(pollN))
		Join(d, d, func(v int) uint64 { hit(); return uint64(v) }, stageKey, emitSum, BroadcastLeft)
	}},
	// The probe loop, over probe rows without a match.
	{name: "JoinWith", run: func(env *Env, hit func()) {
		d := FromSlice(env, ints(pollN))
		JoinWith(d, d, func(v int) uint64 { return uint64(v) }, func(v int) uint64 { hit(); return uint64(v + pollN) },
			func(*Lane) func(int, int, func(int)) { return emitSum }, RepartitionHash, 0)
	}},
	// The probe loop over probe rows without a match: only the per-row poll
	// runs there.
	{name: "OuterJoinWith", run: func(env *Env, hit func()) {
		d := FromSlice(env, ints(pollN))
		OuterJoinWith(d, d, func(v int) uint64 { return uint64(v) }, func(v int) uint64 { return uint64(v + pollN) },
			func(lane *Lane) (func(int, int, func(int)), func(int, func(int))) {
				pair, after := leftOuter(lane)
				return pair, func(r int, emit func(int)) { hit(); after(r, emit) }
			})
	}},
	{name: "SemiJoinWith", run: func(env *Env, hit func()) {
		d := FromSlice(env, ints(pollN))
		SemiJoinWith(d, d, func(v int) uint64 { return uint64(v) }, func(v int) uint64 { hit(); return uint64(v + pollN) }, semi)
	}},
	{name: "Build", run: func(env *Env, hit func()) {
		Build(FromSlice(env, ints(pollN)), func(v int) uint64 { hit(); return uint64(v) })
	}},
	// One probe row whose key chain is the whole build side: only the poll
	// per visited pair runs there.
	{name: "Probe", run: func(env *Env, hit func()) {
		zero := func(int) uint64 { return 0 }
		b := Build(FromSlice(env, ints(pollN)), zero)
		Probe(b, FromSlice(env, []int{0}), zero, func(*Lane) func(int, int, func(int)) {
			return func(int, int, func(int)) { hit() }
		})
	}},
	{name: "DistinctBy", run: func(env *Env, hit func()) {
		DistinctBy(FromSlice(env, ints(pollN)), func(v int) int { hit(); return v % 64 })
	}},
	// ReduceByKey has four loops: the combiner's pass and emit, then behind
	// the shuffle the reducer's pass and emit. The emits call no callback, so
	// their rows cancel on the last call of the pass before them and bound
	// the bytes the emit goes on to allocate; the reducer's pass calls reduce
	// only for a key that two partitions combined.
	{name: "ReduceByKey", run: func(env *Env, hit func()) {
		ReduceByKey(FromSlice(env, ints(pollN)), func(v int) int { hit(); return v % 64 }, func(a, b int) int { return a + b })
	}},
	{name: "ReduceByKey/combine-emit", trigger: pollN, maxBytes: pollBytes, run: func(env *Env, hit func()) {
		ReduceByKey(FromSlice(env, ints(pollN)), func(v int) int { hit(); return v }, func(a, b int) int { return a + b })
	}},
	{name: "ReduceByKey/reduce", workers: 2, run: func(env *Env, hit func()) {
		ReduceByKey(FromSlice(env, ints(pollN)), func(v int) int { return v % (pollN / 2) }, func(a, b int) int { hit(); return a + b })
	}},
	// Both partitions combine the same keys, all of which the shuffle sends
	// to partition 1: partition 0 of the reducer is empty, so after the last
	// reduce call only the emit under test runs.
	{name: "ReduceByKey/reduce-emit", workers: 2, trigger: pollN / 4, maxBytes: pollBytes, run: func(env *Env, hit func()) {
		keys := make([]int, 0, pollN/2)
		for k := 0; len(keys) < pollN/4; k++ {
			if mix64(stableKey(env, k))%2 == 1 {
				keys = append(keys, k)
			}
		}
		ReduceByKey(FromSlice(env, append(keys, keys...)), func(v int) int { return v }, func(a, b int) int { hit(); return a + b })
	}},
	{name: "CountByKey", run: func(env *Env, hit func()) {
		CountByKey(FromSlice(env, ints(pollN)), func(v int) int { hit(); return v % 64 })
	}},
	{name: "GroupBy", run: func(env *Env, hit func()) {
		GroupBy(FromSlice(env, ints(pollN)), func(v int) int { hit(); return v % 64 },
			func(k int, group []int, emit func(int)) { emit(len(group)) })
	}},
	{name: "GroupBy/groups", run: func(env *Env, hit func()) {
		GroupBy(FromSlice(env, ints(pollN)), func(v int) int { return v },
			func(k int, group []int, emit func(int)) { hit(); emit(len(group)) })
	}},
	{name: "PartitionByKey", workers: 2, run: func(env *Env, hit func()) {
		PartitionByKey(FromSlice(env, ints(pollN)), func(v int) uint64 { hit(); return uint64(v) })
	}},
	{name: "Keys", run: func(env *Env, hit func()) {
		Keys(FromSlice(env, ints(pollN)), func() func(int, []uint64) []uint64 {
			return func(v int, keys []uint64) []uint64 { hit(); return append(keys, uint64(v)) }
		})
	}},
}

// TestGroupingOpsPollCancellation is the cancellation table: every loop a
// stage runs over a partition's elements polls the job's context, so a job
// cancelled mid-loop stops within one polling window (cancelCheckMask+1
// elements) instead of finishing the pass. Every exported function of the
// package that takes a function argument has a row, or an entry in
// pollExempt; the test reads the package's source to hold the table to that.
func TestGroupingOpsPollCancellation(t *testing.T) {
	covered := map[string]bool{}
	for _, row := range pollRows {
		name, _, _ := strings.Cut(row.name, "/")
		covered[name] = true
	}
	takesFunc := takesFuncArgument(t)
	for _, name := range takesFunc {
		if !covered[name] && pollExempt[name] == "" {
			t.Errorf("%s takes a function argument and has no row in the cancellation table", name)
		}
	}
	for name := range covered {
		if !slices.Contains(takesFunc, name) {
			t.Errorf("row %s names no exported function with a function argument", name)
		}
	}

	for _, row := range pollRows {
		t.Run(row.name, func(t *testing.T) {
			workers, trigger, max := row.workers, row.trigger, row.max
			if workers == 0 {
				workers = 1
			}
			if trigger == 0 {
				trigger, max = pollCancel, pollMax
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			env := NewEnvContext(ctx, DefaultConfig(workers))
			if row.governed {
				r := govern.NewBroker(1<<40, govern.ShedSelf).Begin("cancel")
				defer r.Release()
				env.SetGovernor(r)
			}
			var calls atomic.Int64
			var atCancel runtime.MemStats
			row.run(env, func() {
				if calls.Add(1) == trigger {
					cancel()
					if row.maxBytes > 0 {
						runtime.ReadMemStats(&atCancel)
					}
				}
			})
			if err := env.Err(); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancellation never observed (%d calls): env.Err() = %v", calls.Load(), err)
			}
			if got := calls.Load(); max > 0 && got > max {
				t.Errorf("kept working after the cancel: %d calls, want <= %d", got, max)
			}
			if row.maxBytes > 0 {
				var after runtime.MemStats
				runtime.ReadMemStats(&after)
				if got := after.TotalAlloc - atCancel.TotalAlloc; got > row.maxBytes {
					t.Errorf("kept emitting after the cancel: %d bytes allocated, want <= %d", got, row.maxBytes)
				}
			}
		})
	}
}

// takesFuncArgument returns the exported functions and methods declared in
// the package's non-test files that have a parameter of function type.
func takesFuncArgument(t *testing.T) []string {
	t.Helper()
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var out []string
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, e.Name(), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			if slices.ContainsFunc(fd.Type.Params.List, func(p *ast.Field) bool {
				_, fn := p.Type.(*ast.FuncType)
				return fn
			}) {
				out = append(out, fd.Name.Name)
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("found no exported function with a function argument: the source scan is broken")
	}
	return out
}
