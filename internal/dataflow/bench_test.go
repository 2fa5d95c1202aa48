package dataflow

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// Micro-benchmarks for the engine primitives: these measure the real local
// throughput of the substrate (the simulated-time model is orthogonal).

func benchData(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i * 2654435761 % (n | 1)
	}
	return out
}

func BenchmarkFlatMap(b *testing.B) {
	for _, workers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			e := NewEnv(DefaultConfig(workers))
			d := FromSlice(e, benchData(100000))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				FlatMap(d, func(x int, emit func(int)) {
					if x%3 != 0 {
						emit(x + 1)
					}
				})
			}
		})
	}
}

func BenchmarkShuffle(b *testing.B) {
	for _, workers := range []int{4, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			e := NewEnv(DefaultConfig(workers))
			d := FromSlice(e, benchData(100000))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				shuffle(d, func(x int) uint64 { return uint64(x) })
			}
		})
	}
}

func BenchmarkRepartitionJoin(b *testing.B) {
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			e := NewEnv(Config{Workers: workers, MemoryPerWorker: 1 << 30})
			l := FromSlice(e, benchData(50000))
			r := FromSlice(e, benchData(50000))
			key := func(x int) uint64 { return uint64(x) }
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Join(l, r, key, key, func(a, c int, emit func(int)) { emit(a) }, RepartitionHash)
			}
		})
	}
}

// BenchmarkAblationJoinStrategy compares the two ways JoinWith joins - both
// inputs repartitioned by key, or the left one broadcast to every worker - on
// the simulated cluster time of one join of a build side of 16, 1 024 and
// 65 536 rows with 100 000 probe rows on eight workers: broadcast wins while
// the build side is tiny and loses as it grows, which is the rule
// operators.JoinEmbeddings decides by (n x P against the other side's size).
func BenchmarkAblationJoinStrategy(b *testing.B) {
	key := func(x int) uint64 { return uint64(x) }
	for _, build := range []int{16, 1 << 10, 1 << 16} {
		for _, hint := range []struct {
			name string
			h    JoinHint
		}{{"repartition", RepartitionHash}, {"broadcast", BroadcastLeft}} {
			b.Run(fmt.Sprintf("build=%d/%s", build, hint.name), func(b *testing.B) {
				e := NewEnv(DefaultConfig(8))
				l := FromSlice(e, benchData(build))
				r := FromSlice(e, benchData(100000))
				var sim float64
				for i := 0; i < b.N; i++ {
					e.ResetMetrics()
					JoinWith(l, r, key, key, func(*Lane) func(int, int, func(int)) {
						return func(a, _ int, emit func(int)) { emit(a) }
					}, hint.h, 0)
					sim = float64(e.Metrics().SimTime.Microseconds()) / 1000
				}
				b.ReportMetric(sim, "simMs")
			})
		}
	}
}

func BenchmarkReduceByKey(b *testing.B) {
	e := NewEnv(DefaultConfig(8))
	d := FromSlice(e, benchData(100000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ReduceByKey(d, func(x int) int { return x % 1024 }, func(a, c int) int { return a + c })
	}
}

// BenchmarkStageAttempt is what one stage costs in heap objects beyond its
// rows: a FlatMapWith stage and a JoinWith stage (inputs already partitioned
// under the join's tag, so the join is its one stage) over four partitions
// of eight elements, tracer and governor nil. A partition attempt's handle
// must not add an object per attempt to either, and each output partition is
// one object, not one per doubling; `make alloc-guard` pins all four.
func BenchmarkStageAttempt(b *testing.B) {
	const tag = 7
	e := NewEnv(DefaultConfig(4))
	key := func(x int) uint64 { return uint64(x) }
	d := FromSlice(e, benchData(32))
	l, r := shuffleTagged(d, key, tag), shuffleTagged(d, key, tag)
	b.Run("FlatMapWith", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			FlatMapWith(d, func(*Lane) func(int, func(int)) {
				return func(x int, emit func(int)) { emit(x + 1) }
			})
		}
	})
	b.Run("JoinWith", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			JoinWith(l, r, key, key, func(*Lane) func(int, int, func(int)) {
				return func(a, _ int, emit func(int)) { emit(a) }
			}, RepartitionHash, tag)
		}
	})
	// The one exchange, on both deployments: a shuffle of the 32 elements in
	// process, and over the memCluster with two processes owning two
	// partitions each (both processes' objects and the test transport's are
	// counted, a step being one shuffle of each).
	b.Run("Shuffle", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			shuffle(d, key)
		}
	})
	b.Run("Shuffle2proc", func(b *testing.B) {
		c := newMemCluster([]int{0, 1, 0, 1}, 2)
		src := make([]wrec, 32)
		for i := range src {
			src[i] = wrec{K: uint64(i), V: int64(i)}
		}
		errs := make([]error, 2)
		var wg sync.WaitGroup
		b.ReportAllocs()
		for proc := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				pe := NewEnv(DefaultConfig(4))
				pe.SetTransport(c.transport(proc))
				pd := FromSlice(pe, src)
				for i := 0; i < b.N; i++ {
					shuffle(pd, func(r wrec) uint64 { return r.K })
				}
				errs[proc] = pe.Err()
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			b.Fatal(err)
		}
	})
	if err := e.Err(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkJobOnBorrowedLanes is a job of three steps - a scan (FlatMapWith),
// a repartition join and a shuffle of its output: five stages - over four
// partitions, on a new Env every op, Finished, after one warm job. Every op's
// Env borrows the lanes the last one gave back, so its tables, routes and
// staging buffers cost no object: what it allocates is the Env and its
// ledger, the stages' own few and each output partition once. `make
// alloc-guard` pins it.
func BenchmarkJobOnBorrowedLanes(b *testing.B) {
	data := benchData(4096)
	key := func(x int) uint64 { return uint64(x % 1024) }
	job := func() {
		e := NewEnv(DefaultConfig(4))
		d := FromSlice(e, data)
		scanned := FlatMapWith(d, func(*Lane) func(int, func(int)) {
			return func(x int, emit func(int)) {
				if x%2 == 0 {
					emit(x)
				}
			}
		})
		PartitionByKey(Join(scanned, d, key, key, emitSum, RepartitionHash), key)
		if err := e.Finish(); err != nil {
			b.Fatal(err)
		}
	}
	job()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job()
	}
}
