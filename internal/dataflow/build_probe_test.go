package dataflow

import (
	"reflect"
	"sync/atomic"
	"testing"
)

type pair struct{ L, R int }

func pairJoiner(*Lane) func(int, int, func(pair)) {
	return func(l, r int, emit func(pair)) { emit(pair{l, r}) }
}

func modKey(m int) func(int) uint64 { return func(v int) uint64 { return uint64(v % m) } }

// TestBuildProbeIsTheJoinInTwoHalves: Build then Probe is JoinWith under
// RepartitionHash taken apart - same rows in the same order, the same CPU,
// network and spill on every worker, the same two shuffles, and one stage
// more because the halves are no longer one.
func TestBuildProbeIsTheJoinInTwoHalves(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cfg := DefaultConfig(workers)
		cfg.MemoryPerWorker = 512 // 16-byte ints: every build partition overflows
		joined, halves := NewEnv(cfg), NewEnv(cfg)

		want := JoinWith(FromSlice(joined, ints(400)), FromSlice(joined, ints(300)),
			modKey(37), modKey(37), pairJoiner, RepartitionHash, 0).Collect()
		got := Probe(Build(FromSlice(halves, ints(400)), modKey(37)),
			FromSlice(halves, ints(300)), modKey(37), pairJoiner).Collect()
		if len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("%d workers: build+probe rows differ from the join's (%d vs %d)", workers, len(got), len(want))
		}

		jm, hm := joined.Metrics(), halves.Metrics()
		if jm.TotalSpill == 0 {
			t.Fatalf("%d workers: the join did not spill; the test would not see a spill difference", workers)
		}
		if !reflect.DeepEqual(hm.CPUElements, jm.CPUElements) || !reflect.DeepEqual(hm.NetBytes, jm.NetBytes) ||
			!reflect.DeepEqual(hm.SpillBytes, jm.SpillBytes) {
			t.Errorf("%d workers: charges differ:\n join  cpu=%v net=%v spill=%v\n halves cpu=%v net=%v spill=%v",
				workers, jm.CPUElements, jm.NetBytes, jm.SpillBytes, hm.CPUElements, hm.NetBytes, hm.SpillBytes)
		}
		if jm.Stages != 3 || jm.Shuffles != 2 || hm.Stages != 4 || hm.Shuffles != 2 {
			t.Errorf("%d workers: join %d stages/%d shuffles, halves %d/%d; want 3/2 and 4/2",
				workers, jm.Stages, jm.Shuffles, hm.Stages, hm.Shuffles)
		}
	}
}

// TestProbeRoundsChargeTheBuildOnce: H probes of one build shuffle 1 + H
// times and pay the build side's CPU, network and spill write once; what
// each round adds is its own probe side and the read of the spilled build
// rows.
func TestProbeRoundsChargeTheBuildOnce(t *testing.T) {
	const rounds = 5
	cfg := DefaultConfig(4)
	cfg.MemoryPerWorker = 512
	env := NewEnv(cfg)
	b := Build(FromSlice(env, ints(400)), modKey(37))
	after := []MetricsSnapshot{env.Metrics()}
	for i := 0; i < rounds; i++ {
		if Probe(b, FromSlice(env, ints(300)), modKey(37), pairJoiner).Count() == 0 {
			t.Fatal("probe emitted nothing")
		}
		after = append(after, env.Metrics())
	}
	if err := env.Err(); err != nil {
		t.Fatal(err)
	}
	built, last := after[0], after[rounds]
	if last.Shuffles != 1+rounds || last.Stages != 2+2*rounds {
		t.Errorf("%d shuffles in %d stages, want %d in %d", last.Shuffles, last.Stages, 1+rounds, 2+2*rounds)
	}
	if built.TotalCPU != 2*400 || built.TotalSpill == 0 {
		t.Errorf("build charged cpu=%d spill=%d, want 800 (route and hash 400 rows) and a spill write", built.TotalCPU, built.TotalSpill)
	}
	round := func(i int) (cpu, net, spill int64) {
		return after[i].TotalCPU - after[i-1].TotalCPU, after[i].TotalNet - after[i-1].TotalNet, after[i].TotalSpill - after[i-1].TotalSpill
	}
	cpu1, net1, spill1 := round(1)
	if cpu1 != 2*300 {
		t.Errorf("a probe round charged %d elements, want 600 (route and probe 300 rows)", cpu1)
	}
	if spill1 <= built.TotalSpill {
		t.Errorf("a probe round spilled %d, want the build's %d read back plus its own share", spill1, built.TotalSpill)
	}
	for i := 2; i <= rounds; i++ {
		if cpu, net, spill := round(i); cpu != cpu1 || net != net1 || spill != spill1 {
			t.Errorf("round %d charged cpu=%d net=%d spill=%d, round 1 cpu=%d net=%d spill=%d", i, cpu, net, spill, cpu1, net1, spill1)
		}
	}
}

// TestBuildProbeRecovery kills the build stage's attempt on one partition
// and, in another run, a probe attempt: rows are the fault-free ones, the
// killed build is redone from its shuffled input (the key function sees the
// partition's rows again), and the killed probe's output is dropped with its
// joiner - the retry gets a fresh one and reads the finished table.
func TestBuildProbeRecovery(t *testing.T) {
	run := func(plan *FaultPlan) (rows [][]pair, keyCalls, joiners int64, part1 int, m MetricsSnapshot) {
		cfg := DefaultConfig(4)
		cfg.FaultPlan = plan
		env := NewEnv(cfg)
		var calls, made atomic.Int64
		b := Build(FromSlice(env, ints(400)), func(v int) uint64 { calls.Add(1); return uint64(v % 37) })
		for i := 0; i < 2; i++ {
			out := Probe(b, FromSlice(env, ints(300)), modKey(37), func(*Lane) func(int, int, func(pair)) {
				made.Add(1)
				return pairJoiner(nil)
			})
			rows = append(rows, out.Collect())
		}
		if err := env.Err(); err != nil {
			t.Fatal(err)
		}
		return rows, calls.Load(), made.Load(), len(b.rows[1]), env.Metrics()
	}
	want, keyCalls, joiners, part1, clean := run(nil)
	if keyCalls != 2*400 || joiners != 2*4 || clean.Retries != 0 {
		t.Fatalf("fault-free run: %d key calls, %d joiners, %d retries", keyCalls, joiners, clean.Retries)
	}
	// Stages: 1 shuffle, 2 build, 3 shuffle, 4 probe, 5 shuffle, 6 probe.
	for _, tc := range []struct {
		name             string
		stage            int64
		keyCalls, joiner int64
	}{
		{"build", 2, keyCalls + int64(part1), joiners},
		{"second probe", 6, keyCalls, joiners + 1},
	} {
		got, calls, made, _, m := run(&FaultPlan{Kills: []Kill{{Stage: tc.stage, Partition: 1}}})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s killed: rows differ from the fault-free run", tc.name)
		}
		if m.Retries != 1 || m.RetriedStages != 1 {
			t.Errorf("%s killed: %d retries over %d stages, want 1 over 1", tc.name, m.Retries, m.RetriedStages)
		}
		if calls != tc.keyCalls || made != tc.joiner {
			t.Errorf("%s killed: %d key calls and %d joiners, want %d and %d", tc.name, calls, made, tc.keyCalls, tc.joiner)
		}
	}
}

// TestUnionAllCopiesOnce: the n-ary union is the nested binary one - same
// rows, same order, same tag - in one stage, with every output partition
// allocated at its final length and a lone non-empty operand aliased.
func TestUnionAllCopiesOnce(t *testing.T) {
	e := env(3)
	a, b, c := FromSlice(e, ints(7)), FromSlice(e, []int{10, 11}), FromSlice(e, []int{20, 21, 22, 23})
	nested := Union(Union(Union(a, Empty[int](e)), b), c)
	before := e.Metrics().Stages
	all := UnionAll(a, Empty[int](e), b, c)
	if got := e.Metrics().Stages - before; got != 1 {
		t.Errorf("UnionAll ran %d stages, want 1", got)
	}
	for p := 0; p < 3; p++ {
		if !reflect.DeepEqual(all.Partition(p), nested.Partition(p)) {
			t.Errorf("partition %d: %v, nested unions give %v", p, all.Partition(p), nested.Partition(p))
		}
		if got := all.Partition(p); cap(got) != len(got) {
			t.Errorf("partition %d: %d rows in room for %d", p, len(got), cap(got))
		}
	}
	alone := UnionAll(Empty[int](e), c, Empty[int](e))
	if len(alone.Partition(0)) == 0 || &alone.Partition(0)[0] != &c.Partition(0)[0] {
		t.Error("a lone non-empty operand should be aliased, not copied")
	}

	key := func(x int) uint64 { return uint64(x) }
	t9a, t9b := shuffleTagged(a, key, 9), shuffleTagged(b, key, 9)
	t10 := shuffleTagged(c, key, 10)
	if UnionAll(t9a, t9b, Empty[int](e)).partTag != 9 {
		t.Error("equally tagged operands and an empty one should keep the tag")
	}
	if UnionAll(t9a, t9b, t10).partTag != 0 {
		t.Error("a differently tagged operand must clear the tag")
	}
}

// TestBulkIterationConcatenatesOnce: seed and per-iteration results come out
// in order through a single Union stage, and their element type is not the
// working set's.
func TestBulkIterationConcatenatesOnce(t *testing.T) {
	e := env(2)
	seed := FromSlice(e, []string{"s0", "s1"})
	before := e.Metrics().Stages
	res := BulkIteration(FromSlice(e, []int{1, 2}), seed, 3, func(it int, w *Dataset[int]) (*Dataset[int], *Dataset[string]) {
		next := Map(w, func(v int) int { return v * 10 })
		if it == 2 {
			return next, nil // an iteration below a lower bound adds nothing
		}
		return next, Map(next, func(v int) string { return string(rune('a'+it)) + ":" + string(rune('0'+v%7)) })
	})
	// Iterations 1 and 3 map twice, iteration 2 once; then one Union.
	if got := e.Metrics().Stages - before; got != 5+1 {
		t.Errorf("%d stages, want 6 (5 in the body, one concatenation)", got)
	}
	want := []string{"s0", "b:3", "d:6", "s1", "b:6", "d:5"}
	if got := res.Collect(); !reflect.DeepEqual(got, want) {
		t.Errorf("results %v, want %v", got, want)
	}
}

// TestMapAllocatesItsOutputOnce: Map is one to one, so an output partition
// is made at its input's length and never grown.
func TestMapAllocatesItsOutputOnce(t *testing.T) {
	e := env(2)
	d := FromSlice(e, ints(10_000))
	out := Map(d, func(v int) int { return v + 1 })
	for p := 0; p < 2; p++ {
		if got := out.Partition(p); len(got) != 5000 || cap(got) != 5000 {
			t.Errorf("partition %d: %d rows in room for %d, want 5000 in 5000", p, len(got), cap(got))
		}
	}
}
