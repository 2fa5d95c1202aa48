package dataflow

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"gradoop/internal/govern"
	"gradoop/internal/trace"
)

// lowerCeiling sets presizeCeiling for the rest of the test. The package's
// tests do not run in parallel, so nothing else sees the lowered value.
func lowerCeiling(t *testing.T, rows int) {
	t.Helper()
	old := presizeCeiling
	presizeCeiling = rows
	t.Cleanup(func() { presizeCeiling = old })
}

// observation is everything about a run that sizing an output must not move:
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

// presizeCases is what TestPresizeIsInvisible runs at every ceiling: the
// stage table, the join in one piece and in its two halves over a build side
// that spills, and a joiner that rejects three candidates in four - so that
// with the ceilings of the test every way a probe's output comes about is
// taken: counted and filled, counted and cut off at the ceiling and grown
// from there, counted as an upper bound and copied down to what survived.
func presizeCases() map[string]func(t *testing.T) observation {
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

// TestPresizeIsInvisible: counting a probe's matches and allocating its
// output at the count changes where the rows are written and nothing else.
// With the ceiling at 1 and at 7 every case gives the rows, the row order,
// the per-partition work and the governor charges it gives at 2^18.
func TestPresizeIsInvisible(t *testing.T) {
	cases := presizeCases()
	want := map[string]observation{}
	for name, run := range cases {
		want[name] = run(t)
	}
	if rows := want["join/rejecting"].rows; len(rows) < 100 {
		t.Fatalf("the rejecting join emitted %q: it checks nothing", rows)
	}
	for _, ceiling := range []int{1, 7} {
		t.Run(fmt.Sprint("ceiling=", ceiling), func(t *testing.T) {
			lowerCeiling(t, ceiling)
			for name, run := range cases {
				got := run(t)
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
		})
	}
}

// TestCountStopsAtTheCeiling: what a count allocates is bounded by the
// ceiling whatever the inputs, and a count that fell short of it is exact.
func TestCountStopsAtTheCeiling(t *testing.T) {
	lowerCeiling(t, 1000)
	e := env(1)
	same := func(int) uint64 { return 1 }
	out := Join(FromSlice(e, ints(100)), FromSlice(e, ints(100)), same, same, emitSum, RepartitionHash)
	if got := out.Partition(0); len(got) != 10_000 || cap(got) != len(got) {
		t.Errorf("over the ceiling: %d rows in room for %d, want 10000 in 10000", len(got), cap(got))
	}
	a := &attempt{env: e}
	table, _ := buildPartition(a, ints(100), same, true)
	if n := countMatches(a, &table, ints(100), same); n != 1000 {
		t.Errorf("a 10 000-pair product counted %d matches, want the ceiling, 1000", n)
	}
	if n := countMatches(a, &table, ints(9), same); n != 900 {
		t.Errorf("a 900-pair product counted %d matches", n)
	}
}

// TestAppendToPublishedPartitionCopies: a published partition has no spare
// capacity - whether it was counted (a join), sized by its input and shrunk
// (a leaf that kept a third), grown as emitted, cut from the caller's slice
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
		"source":     source,
		"join":       Join(source, source, key, key, emitSum, RepartitionHash),
		"leaf":       FlatMapWith(source, third, 1),
		"as-emitted": FlatMapWith(source, third, 0),
		"grouped":    DistinctBy(source, func(x int) int { return x % 50 }),
		"union":      UnionAll(Empty[int](e), source, Empty[int](e)),
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

// TestBlowupDiesBeforeItIsSized: counting must not let a cartesian product
// allocate on the strength of its count. A governed four-way product of
// 150 elements each - 22 500 pairs, 3.4 million triples, half a billion rows -
// under a 1 MiB budget dies in the second join's probe (stage 6) as it always
// did: the pairs and their shuffled copy fit the budget, the count of the
// triples stops at the ceiling (6 MiB of 24-byte rows), the governor's flush
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

// TestCancelLandsInTheCountPass: the count polls like the probe loop, so a
// cancel while it runs stops the attempt within one tick mask of probe rows
// and the probe loop never starts. One worker: its shuffles call no key
// function, so every call of the probe key below is the count's.
func TestCancelLandsInTheCountPass(t *testing.T) {
	const n, trigger = 100_000, 10_000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	env := NewEnvContext(ctx, DefaultConfig(1))
	var calls, joined atomic.Int64
	d := FromSlice(env, ints(n))
	out := Join(d, d, func(x int) uint64 { return uint64(x) },
		func(x int) uint64 {
			if calls.Add(1) == trigger {
				cancel()
			}
			return uint64(x)
		},
		func(a, b int, emit func(int)) { joined.Add(1); emit(a + b) }, RepartitionHash)
	if err := env.Finish(); !errors.Is(err, context.Canceled) {
		t.Fatalf("job error = %v, want context.Canceled", err)
	}
	if got := calls.Load(); got > trigger+cancelCheckMask+1 {
		t.Errorf("the count read %d probe keys, the cancel came at %d: more than one tick mask late", got, trigger)
	}
	if joined.Load() != 0 || out.Partition(0) != nil {
		t.Errorf("a count that was cancelled went on to join %d pairs and publish %d rows", joined.Load(), len(out.Partition(0)))
	}
}
