package dataflow

import (
	"sort"
	"testing"
	"testing/quick"
)

func ints(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func env(workers int) *Env { return NewEnv(DefaultConfig(workers)) }

func TestFromSliceRoundTrip(t *testing.T) {
	for _, w := range []int{1, 2, 3, 7, 16} {
		d := FromSlice(env(w), ints(100))
		got := d.Collect()
		if len(got) != 100 {
			t.Fatalf("workers=%d: got %d elements, want 100", w, len(got))
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("workers=%d: order not preserved at %d: got %d", w, i, v)
			}
		}
		if d.Partitions() != w {
			t.Errorf("workers=%d: partitions=%d", w, d.Partitions())
		}
	}
}

func TestFromSliceSmallerThanWorkers(t *testing.T) {
	d := FromSlice(env(8), ints(3))
	if got := d.Count(); got != 3 {
		t.Fatalf("count=%d, want 3", got)
	}
}

func TestFromPartitionsPadsAndFolds(t *testing.T) {
	e := env(3)
	d := FromPartitions(e, [][]int{{1}, {2}, {3}, {4}, {5}})
	if got := d.Count(); got != 5 {
		t.Fatalf("count=%d want 5", got)
	}
	if d.Partitions() != 3 {
		t.Fatalf("partitions=%d want 3", d.Partitions())
	}
	d2 := FromPartitions(e, [][]int{{1}})
	if d2.Partitions() != 3 || d2.Count() != 1 {
		t.Fatalf("short input not padded: parts=%d count=%d", d2.Partitions(), d2.Count())
	}
}

func TestMapFilterFlatMap(t *testing.T) {
	d := FromSlice(env(4), ints(10))
	doubled := Map(d, func(x int) int { return 2 * x }).Collect()
	for i, v := range doubled {
		if v != 2*i {
			t.Fatalf("map: at %d got %d", i, v)
		}
	}
	even := Filter(d, func(x int) bool { return x%2 == 0 })
	if got := even.Count(); got != 5 {
		t.Fatalf("filter count=%d want 5", got)
	}
	fm := FlatMap(d, func(x int, emit func(int)) {
		for j := 0; j < x; j++ {
			emit(x)
		}
	})
	if got := fm.Count(); got != 45 {
		t.Fatalf("flatmap count=%d want 45", got)
	}
}

func TestMapPartitionSeesWholePartition(t *testing.T) {
	d := FromSlice(env(4), ints(100))
	sizes := MapPartition(d, func(part []int, emit func(int)) { emit(len(part)) }).Collect()
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != 100 {
		t.Fatalf("partition sizes sum to %d", total)
	}
	if len(sizes) != 4 {
		t.Fatalf("expected 4 partition outputs, got %d", len(sizes))
	}
}

func TestUnion(t *testing.T) {
	e := env(3)
	a := FromSlice(e, ints(5))
	b := FromSlice(e, []int{10, 11})
	u := Union(a, b)
	if got := u.Count(); got != 7 {
		t.Fatalf("union count=%d want 7", got)
	}
	if got := Union(a, Empty[int](e)).Count(); got != 5 {
		t.Fatalf("union with empty: %d", got)
	}
}

// TestShufflePreservesMultisetAndGroupsKeys, also with more partitions than
// placeAll keeps fill counters for on its stack.
func TestShufflePreservesMultisetAndGroupsKeys(t *testing.T) {
	for _, workers := range []int{5, placeStack + 3} {
		e := env(workers)
		d := FromSlice(e, ints(1000))
		s := shuffle(d, func(x int) uint64 { return uint64(x % 17) })
		got := s.Collect()
		if len(got) != 1000 {
			t.Fatalf("%d partitions: shuffle lost elements: %d", workers, len(got))
		}
		sort.Ints(got)
		for i, v := range got {
			if v != i {
				t.Fatalf("%d partitions: shuffle changed multiset at %d: %d", workers, i, v)
			}
		}
		// All elements with the same key must be in the same partition.
		keyPart := map[uint64]int{}
		for p, part := range s.parts {
			for _, v := range part {
				k := uint64(v % 17)
				if prev, ok := keyPart[k]; ok && prev != p {
					t.Fatalf("%d partitions: key %d split across partitions %d and %d", workers, k, prev, p)
				}
				keyPart[k] = p
			}
		}
	}
}

func TestShuffleSingleWorkerNoNet(t *testing.T) {
	e := env(1)
	d := FromSlice(e, ints(10))
	shuffle(d, func(x int) uint64 { return uint64(x) })
	m := e.Metrics()
	if m.TotalNet != 0 {
		t.Fatalf("single-worker shuffle moved %d bytes", m.TotalNet)
	}
}

func TestJoinBasic(t *testing.T) {
	for _, hint := range []JoinHint{RepartitionHash, BroadcastLeft} {
		e := env(4)
		l := FromSlice(e, []int{1, 2, 3, 4})
		r := FromSlice(e, []int{2, 2, 4, 6})
		j := Join(l, r,
			func(x int) uint64 { return uint64(x) },
			func(x int) uint64 { return uint64(x) },
			func(a, b int, emit func([2]int)) { emit([2]int{a, b}) }, hint)
		got := j.Collect()
		if len(got) != 3 { // 2-2, 2-2, 4-4
			t.Fatalf("hint=%d join produced %d rows, want 3: %v", hint, len(got), got)
		}
		for _, pair := range got {
			if pair[0] != pair[1] {
				t.Fatalf("hint=%d join matched unequal keys: %v", hint, pair)
			}
		}
	}
}

func TestJoinFlatJoinCanDrop(t *testing.T) {
	e := env(2)
	l := FromSlice(e, []int{1, 2, 3})
	r := FromSlice(e, []int{1, 2, 3})
	j := Join(l, r,
		func(x int) uint64 { return uint64(x) },
		func(x int) uint64 { return uint64(x) },
		func(a, b int, emit func(int)) {
			if a%2 == 1 {
				emit(a + b)
			}
		}, RepartitionHash)
	got := j.Collect()
	sort.Ints(got)
	if len(got) != 2 || got[0] != 2 || got[1] != 6 {
		t.Fatalf("flat join semantics wrong: %v", got)
	}
}

func TestJoinDuplicateKeysCrossProduct(t *testing.T) {
	e := env(3)
	l := FromSlice(e, []int{7, 7, 7})
	r := FromSlice(e, []int{7, 7})
	j := Join(l, r,
		func(x int) uint64 { return uint64(x) },
		func(x int) uint64 { return uint64(x) },
		func(a, b int, emit func(int)) { emit(a * b) }, RepartitionHash)
	if got := j.Count(); got != 6 {
		t.Fatalf("cross product size=%d want 6", got)
	}
}

func TestDistinct(t *testing.T) {
	e := env(4)
	d := FromSlice(e, []int{1, 2, 2, 3, 3, 3, 4})
	got := Distinct(d).Collect()
	sort.Ints(got)
	want := []int{1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("distinct=%v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("distinct=%v", got)
		}
	}
}

func TestDistinctBy(t *testing.T) {
	e := env(4)
	type rec struct{ k, v int }
	d := FromSlice(e, []rec{{1, 10}, {1, 11}, {2, 20}, {2, 21}, {3, 30}})
	got := DistinctBy(d, func(r rec) int { return r.k })
	if got.Count() != 3 {
		t.Fatalf("distinctBy count=%d", got.Count())
	}
}

func TestReduceByKeyAndCountByKey(t *testing.T) {
	e := env(4)
	d := FromSlice(e, ints(100))
	sums := ReduceByKey(d, func(x int) int { return x % 3 }, func(a, b int) int { return a + b }).Collect()
	if len(sums) != 3 {
		t.Fatalf("groups=%d", len(sums))
	}
	total := 0
	for _, kv := range sums {
		total += kv.Value
	}
	if total != 4950 {
		t.Fatalf("sum of groups=%d want 4950", total)
	}
	counts := CountByKey(d, func(x int) int { return x % 4 }).Collect()
	var n int64
	for _, kv := range counts {
		n += kv.Value
	}
	if n != 100 {
		t.Fatalf("countByKey total=%d", n)
	}
}

func TestGroupBy(t *testing.T) {
	e := env(3)
	d := FromSlice(e, ints(30))
	sizes := GroupBy(d, func(x int) int { return x % 5 }, func(k int, group []int, emit func(int)) {
		emit(len(group))
	}).Collect()
	if len(sizes) != 5 {
		t.Fatalf("groups=%d want 5", len(sizes))
	}
	for _, s := range sizes {
		if s != 6 {
			t.Fatalf("group size=%d want 6", s)
		}
	}
}

func TestBulkIteration(t *testing.T) {
	e := env(4)
	// Start with {1..10}; each iteration doubles values < 100 and retires
	// values >= 50 into the result.
	init := FromSlice(e, ints(10))
	res := BulkIteration(init, nil, 100, func(it int, working *Dataset[int]) (*Dataset[int], *Dataset[int]) {
		doubled := Map(working, func(x int) int { return 2 * x })
		next := Filter(doubled, func(x int) bool { return x < 50 })
		done := Filter(doubled, func(x int) bool { return x >= 50 })
		return next, done
	})
	got := res.Collect()
	sort.Ints(got)
	// 0 never exits; everything else doubles until it crosses 50.
	// 1→64, 2→64, 3→96, 4→64, 5→80, 6→96, 7→56, 8→64, 9→72
	want := []int{56, 64, 64, 64, 64, 72, 80, 96, 96}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestBulkIterationRespectsMaxIterations(t *testing.T) {
	e := env(2)
	init := FromSlice(e, []int{1})
	iters := 0
	BulkIteration(init, nil, 5, func(it int, w *Dataset[int]) (*Dataset[int], *Dataset[int]) {
		iters = it
		return w, nil // never terminates on its own
	})
	if iters != 5 {
		t.Fatalf("ran %d iterations, want 5", iters)
	}
}

func TestMetricsCPUAndStages(t *testing.T) {
	e := env(4)
	d := FromSlice(e, ints(100))
	Map(d, func(x int) int { return x })
	m := e.Metrics()
	if m.TotalCPU != 100 {
		t.Fatalf("cpu elements=%d want 100", m.TotalCPU)
	}
	if m.Stages != 1 {
		t.Fatalf("stages=%d want 1", m.Stages)
	}
	e.ResetMetrics()
	if got := e.Metrics(); got.TotalCPU != 0 || got.Stages != 0 {
		t.Fatalf("reset did not clear metrics: %+v", got)
	}
}

func TestMetricsNetBytesOnShuffle(t *testing.T) {
	e := env(4)
	d := FromSlice(e, ints(1000))
	shuffle(d, func(x int) uint64 { return uint64(x) })
	m := e.Metrics()
	if m.TotalNet == 0 {
		t.Fatal("expected network traffic on multi-worker shuffle")
	}
	if m.Shuffles != 1 {
		t.Fatalf("shuffles=%d want 1", m.Shuffles)
	}
}

type fatElem struct{ pad [1]byte }

func (fatElem) SizeBytes() int { return 1 << 20 } // 1 MiB accounted size

func TestJoinSpillsWhenBuildExceedsMemory(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.MemoryPerWorker = 4 << 20 // 4 MiB
	e := NewEnv(cfg)
	build := make([]fatElem, 16) // 16 MiB accounted
	probe := make([]fatElem, 4)
	l := FromSlice(e, build)
	r := FromSlice(e, probe)
	Join(l, r,
		func(fatElem) uint64 { return 1 },
		func(fatElem) uint64 { return 2 },
		func(a, b fatElem, emit func(int)) { emit(0) }, RepartitionHash)
	if m := e.Metrics(); m.TotalSpill == 0 {
		t.Fatal("expected spill with build side over memory budget")
	}
	// With plenty of memory there must be no spill.
	cfg.MemoryPerWorker = 1 << 30
	e2 := NewEnv(cfg)
	Join(FromSlice(e2, build), FromSlice(e2, probe),
		func(fatElem) uint64 { return 1 },
		func(fatElem) uint64 { return 2 },
		func(a, b fatElem, emit func(int)) { emit(0) }, RepartitionHash)
	if m := e2.Metrics(); m.TotalSpill != 0 {
		t.Fatalf("unexpected spill: %d", m.TotalSpill)
	}
}

func TestSimulatedTimeDecreasesWithWorkers(t *testing.T) {
	run := func(workers int) (sim int64) {
		e := env(workers)
		d := FromSlice(e, ints(200000))
		Filter(d, func(x int) bool { return x%2 == 0 })
		return int64(e.Metrics().SimTime)
	}
	t1, t8 := run(1), run(8)
	if t8 >= t1 {
		t.Fatalf("no speedup: 1w=%d 8w=%d", t1, t8)
	}
}

func TestSkewMetric(t *testing.T) {
	e := env(4)
	parts := [][]int{ints(900), ints(30), ints(30), ints(40)}
	d := FromPartitions(e, parts)
	Map(d, func(x int) int { return x })
	if s := e.Metrics().Skew(); s < 3 {
		t.Fatalf("skew=%f, expected heavily skewed (>3)", s)
	}
}

func TestQuickShuffleAndDistinctInvariants(t *testing.T) {
	f := func(data []uint16, workersRaw uint8) bool {
		workers := int(workersRaw%8) + 1
		e := env(workers)
		vals := make([]int, len(data))
		for i, v := range data {
			vals[i] = int(v % 64)
		}
		d := FromSlice(e, vals)
		s := shuffle(d, func(x int) uint64 { return uint64(x) })
		if int(s.Count()) != len(vals) {
			return false
		}
		uniq := map[int]struct{}{}
		for _, v := range vals {
			uniq[v] = struct{}{}
		}
		return int(Distinct(d).Count()) == len(uniq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHashString(t *testing.T) {
	if HashString("alice") == HashString("bob") {
		t.Fatal("suspicious collision")
	}
	if HashString("x") != HashString("x") {
		t.Fatal("not deterministic")
	}
}
