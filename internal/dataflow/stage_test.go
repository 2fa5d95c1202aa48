package dataflow

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"gradoop/internal/trace"
)

// published is what the last stage of a transformation must have accounted,
// per partition: the rows it published and the rows it materialized - its
// output plus whatever input it holds beside it (a join's build side). The
// test elements are not Sized, so a materialized row is defaultElementSize
// bytes to the governor. dump is the partitions themselves, printed: the rows
// and their order.
type published struct {
	rows, held []int
	dump       string
}

func lens[T any](d *Dataset[T]) published {
	out := published{rows: make([]int, len(d.parts)), held: make([]int, len(d.parts)), dump: fmt.Sprint(d.parts)}
	for p := range d.parts {
		out.rows[p] = len(d.parts[p])
	}
	return out
}

// holding adds to each partition the rows of data whose key the shuffle sends
// there: what a join stage holds of its keyed build side.
func (pub published) holding(data []int, key func(int) uint64) published {
	w := uint64(len(pub.held))
	for _, x := range data {
		pub.held[mix64(key(x))%w]++
	}
	return pub
}

// stageCases is every transformation of the package on non-empty input. Each
// runs on a fresh env and reports what its final stage published.
var stageCases = []struct {
	name    string
	workers int
	run     func(env *Env) published
}{
	{"FlatMap", 4, func(env *Env) published {
		return lens(FlatMap(FromSlice(env, ints(400)), func(x int, emit func(int)) { emit(x); emit(x + 1) }))
	}},
	{"MapPartition", 4, func(env *Env) published {
		return lens(MapPartition(FromSlice(env, ints(400)), func(part []int, emit func(int)) {
			for i, x := range part {
				if i&cancelCheckMask == cancelCheckMask && env.aborted() {
					return
				}
				emit(x)
			}
		}))
	}},
	{"Shuffle/w=1", 1, func(env *Env) published {
		// One worker: the partition is aliased, nothing is materialized.
		pub := lens(PartitionByKey(FromSlice(env, ints(400)), stageKey))
		pub.held[0] = -pub.rows[0]
		return pub
	}},
	{"Shuffle/w=4", 4, func(env *Env) published {
		return lens(PartitionByKey(FromSlice(env, ints(400)), stageKey))
	}},
	{"Join/repartition", 4, func(env *Env) published {
		l, r := ints(300), ints(500)
		out := Join(FromSlice(env, l), FromSlice(env, r), stageKey, stageKey, emitSum, RepartitionHash)
		return lens(out).holding(l, stageKey)
	}},
	{"Join/broadcast", 4, func(env *Env) published {
		l, r := ints(30), ints(500)
		pub := lens(Join(FromSlice(env, l), FromSlice(env, r), stageKey, stageKey, emitSum, BroadcastLeft))
		for p := range pub.held {
			pub.held[p] = len(l) // every partition builds over the whole replica
		}
		return pub
	}},
	{"Build", 4, func(env *Env) published {
		l := ints(300)
		b := Build(FromSlice(env, l), stageKey)
		// A build publishes a table, no rows.
		return published{rows: make([]int, len(b.rows)), held: make([]int, len(b.rows))}.holding(l, stageKey)
	}},
	{"Probe", 4, func(env *Env) published {
		b := Build(FromSlice(env, ints(300)), stageKey)
		return lens(Probe(b, FromSlice(env, ints(500)), stageKey, func(*Lane) func(int, int, func(int)) { return emitSum }))
	}},
	{"OuterJoinWith", 4, func(env *Env) published { return perRowStage(env, OuterJoinWith[int, int, int], leftOuter) }},
	{"SemiJoinWith", 4, func(env *Env) published { return perRowStage(env, SemiJoinWith[int, int, int], semi) }},
	{"UnionAll", 4, func(env *Env) published {
		d := FromSlice(env, ints(400))
		return lens(UnionAll(d, Map(d, func(x int) int { return -x }), d))
	}},
	{"DistinctBy", 4, func(env *Env) published {
		return lens(DistinctBy(FromSlice(env, ints(400)), func(x int) int { return x % 50 }))
	}},
	{"ReduceByKey", 4, func(env *Env) published {
		return lens(ReduceByKey(FromSlice(env, ints(400)), func(x int) int { return x % 50 }, func(a, b int) int { return a + b }))
	}},
	{"GroupBy", 4, func(env *Env) published {
		return lens(GroupBy(FromSlice(env, ints(400)), func(x int) int { return x % 50 },
			func(_ int, group []int, emit func(int)) { emit(len(group)) }))
	}},
}

func stageKey(x int) uint64 { return uint64(x % 97) }

func emitSum(a, b int, emit func(int)) { emit(a + b) }

// perRowStage probes keys 0..96 with keys 0..149: probe rows with a partner
// and without.
func perRowStage[J any](env *Env, join func(l, r *Dataset[int], lkey, rkey func(int) uint64, newJoiner J) *Dataset[int], joiner J) published {
	l, r := ints(97), ints(150)
	key := func(x int) uint64 { return uint64(x) }
	return lens(join(FromSlice(env, l), FromSlice(env, r), key, key, joiner)).holding(l, key)
}

// leftOuter is an OuterJoinWith joiner: the sum of every pair, and the
// negated probe row where there was none.
func leftOuter(*Lane) (func(int, int, func(int)), func(int, func(int))) {
	matched := false
	return func(l, r int, emit func(int)) { matched = true; emit(l + r) },
		func(r int, emit func(int)) {
			if !matched {
				emit(-r)
			}
			matched = false
		}
}

// semi is a SemiJoinWith joiner: it keeps the probe rows that found a partner.
func semi(*Lane) (func(int, int) bool, func(int, func(int))) {
	matched := false
	return func(int, int) bool { matched = true; return true },
		func(r int, emit func(int)) {
			if matched {
				emit(r)
			}
			matched = false
		}
}

// TestEveryStageIsAccounted is the contract runStage exists for, checked on
// what ran and not on how the code reads: with a tracer and a governor
// installed, every stage of every transformation charges CPU or network (a
// union moves nothing and is the one exception), its last stage traces as
// many rows out as the partition it published holds, and the governor was
// charged exactly the bytes of what that stage materialized.
func TestEveryStageIsAccounted(t *testing.T) {
	for _, tc := range stageCases {
		t.Run(tc.name, func(t *testing.T) {
			env, _, r := governedEnv(t, tc.workers, 1<<30)
			defer r.Release()
			col := trace.NewCollector()
			env.SetTracer(col)
			want := tc.run(env)
			if err := env.Finish(); err != nil {
				t.Fatal(err)
			}
			spans := col.Spans()
			for _, s := range spans {
				var charged int64
				for _, part := range s.Parts {
					charged += part.CPUElements + part.NetBytes
				}
				if charged == 0 && s.Kind != "Union" {
					t.Errorf("stage %d (%s) charged neither CPU nor network", s.Stage, s.Kind)
				}
			}
			last := spans[len(spans)-1]
			var rows int
			for p, part := range last.Parts {
				rows += want.rows[p]
				if part.RowsOut != int64(want.rows[p]) {
					t.Errorf("%s partition %d: traced %d rows out, published %d", last.Kind, p, part.RowsOut, want.rows[p])
				}
				if mem := int64(defaultElementSize * (want.rows[p] + want.held[p])); part.MemBytes != mem {
					t.Errorf("%s partition %d: governor charged %d B, the stage materialized %d B", last.Kind, p, part.MemBytes, mem)
				}
			}
			if rows == 0 && last.Kind != "Build" {
				t.Fatal("the case published no rows: it checks nothing")
			}
			if m := env.Metrics(); r.Used() != m.TotalMem {
				t.Errorf("reservation holds %d B, metrics say %d B", r.Used(), m.TotalMem)
			}
		})
	}
}

// TestRetriedAttemptsAreCountedOnce: the same transformations with every
// partition attempt of every stage killed once. The retry re-charges its CPU
// (the work was done twice), but rows in and out are what the failure-free
// run traced, stage by stage and partition by partition, and so is what was
// published.
func TestRetriedAttemptsAreCountedOnce(t *testing.T) {
	for _, tc := range stageCases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(plan *FaultPlan) (published, []trace.Span) {
				env := NewEnv(DefaultConfig(tc.workers))
				env.InjectFaults(plan)
				col := trace.NewCollector()
				env.SetTracer(col)
				pub := tc.run(env)
				if err := env.Finish(); err != nil {
					t.Fatal(err)
				}
				return pub, col.Spans()
			}
			want, clean := run(nil)
			plan := &FaultPlan{}
			for _, s := range clean {
				for p := range s.Parts {
					plan.Kills = append(plan.Kills, Kill{Stage: s.Stage, Partition: p})
				}
			}
			got, faulty := run(plan)
			for p := range want.rows {
				if got.rows[p] != want.rows[p] {
					t.Errorf("partition %d: published %d rows after recovery, %d without faults", p, got.rows[p], want.rows[p])
				}
			}
			var retries int64
			for i, s := range faulty {
				retries += s.Retries()
				// Stages without partition attempts (a union, a broadcast, the
				// one-worker shuffle) have nothing to kill.
				if len(s.Attempts) > 0 && s.Retries() != int64(tc.workers) {
					t.Errorf("stage %d (%s): %d retries, want one per partition", s.Stage, s.Kind, s.Retries())
				}
				for p, part := range s.Parts {
					if c := clean[i].Parts[p]; part.RowsIn != c.RowsIn || part.RowsOut != c.RowsOut {
						t.Errorf("stage %d (%s) partition %d: rows %d in / %d out after a retry, %d / %d without",
							s.Stage, s.Kind, p, part.RowsIn, part.RowsOut, c.RowsIn, c.RowsOut)
					}
				}
			}
			if retries == 0 && tc.workers > 1 {
				t.Fatal("no attempt was retried: the case checks nothing")
			}
		})
	}
}

// TestSpanChargesPriceToSnapshot ties the two descriptions of a job together:
// the spans' per-partition CPU, network, spill and recovery charges sum, per
// worker, to the snapshot's arrays, and the one pricing function over those
// sums plus one overhead per stage is the snapshot's SimTime to the
// nanosecond. The jobs run under a fault plan (so recovery is charged) and
// with a join memory small enough that the joins spill. The per-stage
// SimTimes, a maximum each, only bound the job's figure from above.
func TestSpanChargesPriceToSnapshot(t *testing.T) {
	var recovered, spilled bool
	for _, tc := range stageCases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(tc.workers)
			cfg.MemoryPerWorker = 256
			env := NewEnv(cfg)
			plan := &FaultPlan{}
			for stage := int64(1); stage <= 8; stage++ {
				plan.Kills = append(plan.Kills, Kill{Stage: stage, Partition: int(stage) % tc.workers})
			}
			env.InjectFaults(plan)
			col := trace.NewCollector()
			env.SetTracer(col)
			tc.run(env)
			if err := env.Finish(); err != nil {
				t.Fatal(err)
			}
			snap, cost := env.Metrics(), cfg.Cost()

			cpu, net, spill := make([]int64, tc.workers), make([]int64, tc.workers), make([]int64, tc.workers)
			recovery := make([]time.Duration, tc.workers)
			var stages time.Duration
			for _, s := range col.Spans() {
				stages += s.SimTime(cost)
				for w, p := range s.Parts {
					cpu[w] += p.CPUElements
					net[w] += p.NetBytes
					spill[w] += p.SpillBytes
					recovery[w] += p.Recovery
				}
			}
			if !slices.Equal(cpu, snap.CPUElements) || !slices.Equal(net, snap.NetBytes) || !slices.Equal(spill, snap.SpillBytes) {
				t.Errorf("spans sum to cpu=%v net=%v spill=%v, the snapshot says %v %v %v",
					cpu, net, spill, snap.CPUElements, snap.NetBytes, snap.SpillBytes)
			}
			var worst, totalRecovery time.Duration
			for w := range cpu {
				worst = max(worst, cost.Time(cpu[w], net[w], spill[w], recovery[w]))
				totalRecovery += recovery[w]
			}
			if totalRecovery != snap.RecoveryTime {
				t.Errorf("spans carry %v of recovery, the snapshot %v", totalRecovery, snap.RecoveryTime)
			}
			if got := worst + time.Duration(snap.Stages)*cost.StageOverhead; got != snap.SimTime {
				t.Errorf("the spans' charges price to %v, the snapshot's SimTime is %v", got, snap.SimTime)
			}
			if stages < snap.SimTime {
				t.Errorf("per-stage SimTimes sum to %v, below the job's %v", stages, snap.SimTime)
			}
			recovered = recovered || snap.RecoveryTime > 0
			spilled = spilled || snap.TotalSpill > 0
		})
	}
	if !recovered || !spilled {
		t.Fatalf("recovered=%v spilled=%v: a term of the formula was never charged", recovered, spilled)
	}
}

// TestAbortedAttemptPublishesNothing: an attempt that ends on a cancelled job
// - stopped by its poll, or run to its end after the cancel - publishes no
// partition, charges nothing and traces no rows. Before runStage owned the
// exit, a probe returned the rows it had joined so far, and a MapPartition
// whose UDF returned early on the abort charged its CPU and published what
// had been emitted.
func TestAbortedAttemptPublishesNothing(t *testing.T) {
	const n, workers = 100_000, 4
	id := func(x int) uint64 { return uint64(x) }
	hooked := func(hook func()) func(int, int, func(int)) {
		return func(a, b int, emit func(int)) { hook(); emit(a + b) }
	}
	for _, tc := range []struct {
		name string
		// run calls hook once per unit of the work the stage under test does
		// after its inputs were shuffled; quiet is how many calls the
		// shuffles before it make. A probe key is first read again by the
		// count pass, a joiner is called by the probe loop only.
		quiet int64
		run   func(d *Dataset[int], hook func()) [][]int
	}{
		{"Join", 0, func(d *Dataset[int], hook func()) [][]int {
			return Join(d, d, id, id, hooked(hook), RepartitionHash).parts
		}},
		{"Join/cancelled while counting", n, func(d *Dataset[int], hook func()) [][]int {
			rkey := func(x int) uint64 { hook(); return uint64(x) }
			return Join(d, d, id, rkey, emitSum, RepartitionHash).parts
		}},
		{"Probe", 0, func(d *Dataset[int], hook func()) [][]int {
			return Probe(Build(d, id), d, id, func(*Lane) func(int, int, func(int)) { return hooked(hook) }).parts
		}},
		{"Probe/cancelled while counting", n, func(d *Dataset[int], hook func()) [][]int {
			rkey := func(x int) uint64 { hook(); return uint64(x) }
			return Probe(Build(d, id), d, rkey, func(*Lane) func(int, int, func(int)) { return emitSum }).parts
		}},
		{"OuterJoinWith", 0, func(d *Dataset[int], hook func()) [][]int {
			return OuterJoinWith(d, d, id, id, func(*Lane) (func(int, int, func(int)), func(int, func(int))) {
				return hooked(hook), func(int, func(int)) {}
			}).parts
		}},
		{"SemiJoinWith/cancelled in the epilogue", 0, func(d *Dataset[int], hook func()) [][]int {
			return SemiJoinWith(d, d, id, id, func(*Lane) (func(int, int) bool, func(int, func(int))) {
				return func(int, int) bool { return true }, func(r int, emit func(int)) { hook(); emit(r) }
			}).parts
		}},
		{"GroupBy", 0, func(d *Dataset[int], hook func()) [][]int {
			return GroupBy(d, func(x int) int { return x % 8192 },
				func(_ int, group []int, emit func(int)) { hook(); emit(len(group)) }).parts
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			env := NewEnvContext(ctx, DefaultConfig(workers))
			col := trace.NewCollector()
			env.SetTracer(col)
			var calls atomic.Int64
			// Cancel a little way into the stage: no partition can be done, and
			// each has emitted rows by the time its next poll comes round.
			parts := tc.run(FromSlice(env, ints(n)), func() {
				if calls.Add(1) == tc.quiet+100 {
					cancel()
				}
			})
			if err := env.Finish(); !errors.Is(err, context.Canceled) {
				t.Fatalf("job error = %v, want context.Canceled", err)
			}
			for p, part := range parts {
				if part != nil {
					t.Errorf("partition %d: an aborted attempt published %d rows", p, len(part))
				}
			}
			spans := col.Spans()
			last := spans[len(spans)-1]
			for p, part := range last.Parts {
				if part.RowsIn != 0 || part.RowsOut != 0 || part.CPUElements != 0 {
					t.Errorf("%s partition %d: an aborted attempt traced %d rows in, %d out, %d CPU",
						last.Kind, p, part.RowsIn, part.RowsOut, part.CPUElements)
				}
			}
		})
	}
}
