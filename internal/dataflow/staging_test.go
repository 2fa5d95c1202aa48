package dataflow

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"gradoop/internal/govern"
	"gradoop/internal/trace"
)

// observation is everything about a run that staging an output must not move:
// the rows in partition order, what every stage traced and charged per
// partition (rows in and out, CPU, network, spill, governor bytes), and the
// job's metrics.
type observation struct {
	rows    string
	kinds   []string
	parts   [][]trace.PartStats
	metrics MetricsSnapshot
}

func observe(t *testing.T, cfg Config, run func(env *Env) string) observation {
	t.Helper()
	env := NewEnv(cfg)
	r := govern.NewBroker(1<<30, govern.ShedSelf).Begin("test-job")
	defer r.Release()
	env.SetGovernor(r)
	col := trace.NewCollector()
	env.SetTracer(col)
	obs := observation{rows: run(env)}
	if err := env.Finish(); err != nil {
		t.Fatal(err)
	}
	for _, s := range col.Spans() {
		obs.kinds = append(obs.kinds, s.Kind)
		obs.parts = append(obs.parts, s.Parts)
	}
	obs.metrics = env.Metrics()
	return obs
}

// stagingCases is what TestStagingIsInvisible runs: the stage table, the join
// in one piece and in its two halves over a build side that spills, and a
// joiner that rejects three candidates in four - outputs of every element
// type and length the package's tests stage, over tables and routes of every
// size.
func stagingCases() map[string]func(t *testing.T) observation {
	cases := map[string]func(t *testing.T) observation{}
	for _, tc := range stageCases {
		cases["stage/"+tc.name] = func(t *testing.T) observation {
			return observe(t, DefaultConfig(tc.workers), func(env *Env) string { return tc.run(env).dump })
		}
	}
	spilling := DefaultConfig(4)
	spilling.MemoryPerWorker = 512 // as in TestBuildProbeIsTheJoinInTwoHalves
	cases["join/whole"] = func(t *testing.T) observation {
		return observe(t, spilling, func(env *Env) string {
			return fmt.Sprint(JoinWith(FromSlice(env, ints(400)), FromSlice(env, ints(300)),
				modKey(37), modKey(37), pairJoiner, RepartitionHash, 0).parts)
		})
	}
	cases["join/halves"] = func(t *testing.T) observation {
		return observe(t, spilling, func(env *Env) string {
			return fmt.Sprint(Probe(Build(FromSlice(env, ints(400)), modKey(37)),
				FromSlice(env, ints(300)), modKey(37), pairJoiner).parts)
		})
	}
	cases["join/rejecting"] = func(t *testing.T) observation {
		return observe(t, DefaultConfig(4), func(env *Env) string {
			return fmt.Sprint(Join(FromSlice(env, ints(400)), FromSlice(env, ints(300)), modKey(37), modKey(37),
				func(l, r int, emit func(pair)) {
					if (l+r)%4 == 0 {
						emit(pair{l, r})
					}
				}, BroadcastLeft).parts)
		})
	}
	return cases
}

// TestStagingIsInvisible: what a lane holds when a job borrows it - the
// staging buffers, tables and routes other jobs grew and gave back, scribbled
// over in a race build - changes where the rows are written and nothing
// else. Every case, run first on a fresh process's lanes and then again on
// the lanes every case gave back, in the opposite order, gives the same rows
// in the same order, the same per-partition work and the same governor
// charges.
func TestStagingIsInvisible(t *testing.T) {
	cases := stagingCases()
	names := slices.Sorted(maps.Keys(cases))
	want := map[string]observation{}
	for _, name := range names {
		freshProcess()
		want[name] = cases[name](t)
	}
	if rows := want["join/rejecting"].rows; len(rows) < 100 {
		t.Fatalf("the rejecting join emitted %q: it checks nothing", rows)
	}
	for _, name := range names {
		cases[name](t) // every case's lanes are given back
	}
	slices.Reverse(names)
	for _, name := range names {
		got := cases[name](t)
		if got.rows != want[name].rows {
			t.Errorf("%s: rows or their order differ", name)
		}
		if !reflect.DeepEqual(got.kinds, want[name].kinds) || !reflect.DeepEqual(got.parts, want[name].parts) {
			t.Errorf("%s: per-partition work differs:\n got %v\nwant %v", name, got.parts, want[name].parts)
		}
		if !reflect.DeepEqual(got.metrics, want[name].metrics) {
			t.Errorf("%s: metrics differ:\n got %+v\nwant %+v", name, got.metrics, want[name].metrics)
		}
	}
}

// TestAppendToPublishedPartitionCopies: a published partition has no spare
// capacity - whether it was staged (a join, a leaf that kept a third), cut
// from the caller's slice
// (FromSlice, whose chunks are neighbours in one array) or is another
// dataset's partition under a new name (a union with one non-empty operand).
// So an append to one reallocates, and neither the dataset, its neighbour
// partition nor its alias sees the appended element.
func TestAppendToPublishedPartitionCopies(t *testing.T) {
	e := env(2)
	key := func(x int) uint64 { return uint64(x) }
	third := func(*Lane) func(int, func(int)) {
		return func(x int, emit func(int)) {
			if x%3 == 0 {
				emit(x)
			}
		}
	}
	source := FromSlice(e, ints(600))
	cases := map[string]*Dataset[int]{
		"source":  source,
		"join":    Join(source, source, key, key, emitSum, RepartitionHash),
		"leaf":    FlatMapWith(source, third),
		"grouped": DistinctBy(source, func(x int) int { return x % 50 }),
		"union":   UnionAll(Empty[int](e), source, Empty[int](e)),
	}
	for name, d := range cases {
		for p := 0; p < d.Partitions(); p++ {
			part := d.Partition(p)
			if len(part) == 0 {
				t.Fatalf("%s: partition %d is empty, the case checks nothing", name, p)
			}
			if cap(part) != len(part) {
				t.Errorf("%s: partition %d has %d rows in room for %d", name, p, len(part), cap(part))
			}
		}
	}
	before := fmt.Sprint(source.parts, cases["union"].parts)
	_ = append(cases["union"].Partition(0), -1)
	_ = append(source.Partition(0), -2)
	if after := fmt.Sprint(source.parts, cases["union"].parts); after != before {
		t.Error("an append to a published partition wrote into the dataset or its alias")
	}
	if &cases["union"].Partition(0)[0] != &source.Partition(0)[0] {
		t.Error("a lone non-empty operand should still be aliased, not copied")
	}
}

// TestBlowupDiesBeforeItIsSized: nothing is allocated on the strength of a
// count - a probe stages its rows as it writes them - so a cartesian product
// dies at the budget in its write loop. A governed four-way product of 150
// elements each - 22 500 pairs, 3.4 million triples, half a billion rows -
// under a 1 MiB budget dies in the second join's probe (stage 6) as it always
// did: the pairs and their shuffled copy fit the budget, the governor's flush
// kills the probe some twenty thousand rows in, the third join never starts,
// and the reservation drains.
func TestBlowupDiesBeforeItIsSized(t *testing.T) {
	type row [3]int // 24 bytes
	env, b, r := governedEnv(t, 4, 1<<20)
	same := func(row) uint64 { return 1 }
	cross := func(l, r row, emit func(row)) { emit(row{l[0], r[0], l[1]}) }
	side := make([]row, 150)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out := FromSlice(env, side)
	for i := 0; i < 3; i++ {
		out = Join(FromSlice(env, side), out, same, same, cross, RepartitionHash) // the small side builds
	}
	runtime.ReadMemStats(&after)

	err := env.Err()
	if !errors.Is(err, govern.ErrMemoryBudget) {
		t.Fatalf("job error = %v, want ErrMemoryBudget", err)
	}
	var je *JobError
	if !errors.As(err, &je) || je.Stage != 6 {
		t.Errorf("killed at %v, want in stage 6, the second join's probe", err)
	}
	if n := out.Count(); n != 0 {
		t.Errorf("a killed product published %d rows", n)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 32<<20 {
		t.Errorf("the product allocated %d MiB before it died, want under 32", got>>20)
	}
	r.Release()
	if got := b.Reserved(); got != 0 {
		t.Errorf("broker holds %d B after release, want 0", got)
	}
}

// TestOuterJoinDiesInsideItsKeyGroup: an outer join's key group is walked by
// the engine's probe loop, pair by pair, so one group of 3 000 x 3 000
// 24-byte rows - 9 million pairs, 206 MiB of output - is shed and cancelled
// like any join's. When a key's two groups were handed whole to a function
// whose nested loop nobody polled, the same inputs allocated 1.2 GiB before
// the first charge and a cancel at pair 10 000 was noticed after the last.
func TestOuterJoinDiesInsideItsKeyGroup(t *testing.T) {
	type row [3]int
	same := func(row) uint64 { return 1 }
	side := make([]row, 3000)
	outer := func(onPair func()) func(*Lane) (func(row, row, func(row)), func(row, func(row))) {
		return func(*Lane) (func(row, row, func(row)), func(row, func(row))) {
			matched := false
			return func(l, r row, emit func(row)) { onPair(); matched = true; emit(row{l[0], r[0]}) },
				func(r row, emit func(row)) {
					if !matched {
						emit(r)
					}
					matched = false
				}
		}
	}

	t.Run("shed", func(t *testing.T) {
		env, b, r := governedEnv(t, 4, 1<<20)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out := OuterJoinWith(FromSlice(env, side), FromSlice(env, side), same, same, outer(func() {}))
		runtime.ReadMemStats(&after)
		if err := env.Err(); !errors.Is(err, govern.ErrMemoryBudget) {
			t.Fatalf("job error = %v, want ErrMemoryBudget", err)
		}
		if n := out.Count(); n != 0 {
			t.Errorf("a killed product published %d rows", n)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 32<<20 {
			t.Errorf("the group allocated %d MiB before it died, want under 32", got>>20)
		}
		r.Release()
		if got := b.Reserved(); got != 0 {
			t.Errorf("broker holds %d B after release, want 0", got)
		}
	})

	t.Run("cancelled", func(t *testing.T) {
		const trigger = 10_000
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		env := NewEnvContext(ctx, DefaultConfig(1))
		var pairs atomic.Int64
		out := OuterJoinWith(FromSlice(env, side), FromSlice(env, side), same, same, outer(func() {
			if pairs.Add(1) == trigger {
				cancel()
			}
		}))
		if err := env.Finish(); !errors.Is(err, context.Canceled) {
			t.Fatalf("job error = %v, want context.Canceled", err)
		}
		if got := pairs.Load(); got > trigger+cancelCheckMask+1 {
			t.Errorf("%d pairs visited, the cancel came at %d: more than one tick mask late", got, trigger)
		}
		if out.Partition(0) != nil {
			t.Errorf("a cancelled group published %d rows", len(out.Partition(0)))
		}
	})
}
