// Package partitioncapture exercises the partitioncapture analyzer:
// per-partition UDF closures writing captured shared state race across
// partition goroutines unless synchronized.
package partitioncapture

import (
	"sync"
	"sync/atomic"

	"gradoop/internal/dataflow"
)

func capturedAssign(d *dataflow.Dataset[int]) {
	total := 0
	dataflow.Map(d, func(v int) int {
		total += v // want `UDF passed to dataflow\.Map writes captured variable "total"`
		return v
	})
	_ = total
}

func capturedIncDec(d *dataflow.Dataset[int]) {
	count := 0
	dataflow.Filter(d, func(v int) bool {
		count++ // want `UDF passed to dataflow\.Filter writes captured variable "count"`
		return v > 0
	})
	_ = count
}

func capturedInJoiner(l, r *dataflow.Dataset[int]) {
	pairs := 0
	key := func(v int) uint64 { return uint64(v) }
	dataflow.Join(l, r, key, key, func(x, y int, emit func(int)) {
		pairs++ // want `UDF passed to dataflow\.Join writes captured variable "pairs"`
		emit(x + y)
	}, dataflow.RepartitionHash)
	_ = pairs
}

// localState writes only variables declared inside the literal; nothing to
// report.
func localState(d *dataflow.Dataset[int]) {
	dataflow.MapPartition(d, func(part []int, emit func(int)) {
		sum := 0
		for _, v := range part {
			sum += v
		}
		emit(sum)
	})
}

// mutexGuarded takes a lock before writing; the analyzer assumes the
// literal synchronizes deliberately.
func mutexGuarded(d *dataflow.Dataset[int]) {
	var mu sync.Mutex
	total := 0
	dataflow.Map(d, func(v int) int {
		mu.Lock()
		total += v
		mu.Unlock()
		return v
	})
	_ = total
}

// atomicCounter mutates shared state through sync/atomic calls, which are
// not assignments and stay legal.
func atomicCounter(d *dataflow.Dataset[int]) {
	var n atomic.Int64
	dataflow.Map(d, func(v int) int {
		n.Add(1)
		return v
	})
	_ = n.Load()
}

// perAttemptState is what the With variants exist for: the factory runs
// once per partition attempt, so state it declares belongs to one goroutine
// and the row function may write it.
func perAttemptState(d *dataflow.Dataset[int]) {
	dataflow.FlatMapWith(d, func(*dataflow.Lane) func(int, func(int)) {
		seen := 0
		return func(v int, emit func(int)) {
			seen++
			emit(v + seen)
		}
	}, 1)
}

// sharedThroughFactory captures a variable from outside the factory; every
// attempt's row function writes the same one.
func sharedThroughFactory(l, r *dataflow.Dataset[int]) {
	pairs := 0
	key := func(v int) uint64 { return uint64(v) }
	dataflow.JoinWith(l, r, key, key, func(*dataflow.Lane) func(int, int, func(int)) {
		return func(x, y int, emit func(int)) {
			pairs++ // want `UDF passed to dataflow\.JoinWith writes captured variable "pairs"`
			emit(x + y)
		}
	}, dataflow.RepartitionHash, 0)
	_ = pairs
}

// outerJoinState is an outer join's: the flag its pair function sets and its
// per-probe-row function reads and resets is declared by the factory, once
// per attempt. Parked outside the factory, the same flag is one variable for
// every partition.
func outerJoinState(l, r *dataflow.Dataset[int]) {
	key := func(v int) uint64 { return uint64(v) }
	dataflow.OuterJoinWith(l, r, key, key, func(*dataflow.Lane) (func(int, int, func(int)), func(int, func(int))) {
		matched := false
		return func(x, y int, emit func(int)) {
				matched = true
				emit(x + y)
			}, func(y int, emit func(int)) {
				if !matched {
					emit(-y)
				}
				matched = false
			}
	})
	matched := false
	dataflow.OuterJoinWith(l, r, key, key, func(*dataflow.Lane) (func(int, int, func(int)), func(int, func(int))) {
		return func(x, y int, emit func(int)) {
				matched = true // want `UDF passed to dataflow\.OuterJoinWith writes captured variable "matched"`
				emit(x + y)
			}, func(y int, emit func(int)) {
				if !matched {
					emit(-y)
				}
				matched = false // want `UDF passed to dataflow\.OuterJoinWith writes captured variable "matched"`
			}
	})
}

// semiJoinState is outerJoinState for a join whose pairs are only tested.
func semiJoinState(l, r *dataflow.Dataset[int]) {
	key := func(v int) uint64 { return uint64(v) }
	dataflow.SemiJoinWith(l, r, key, key, func(*dataflow.Lane) (func(int, int) bool, func(int, func(int))) {
		found := false
		return func(x, y int) bool {
				found = true
				return true
			}, func(y int, emit func(int)) {
				if found {
					emit(y)
				}
				found = false
			}
	})
	found := false
	dataflow.SemiJoinWith(l, r, key, key, func(*dataflow.Lane) (func(int, int) bool, func(int, func(int))) {
		return func(x, y int) bool {
				found = true // want `UDF passed to dataflow\.SemiJoinWith writes captured variable "found"`
				return true
			}, func(y int, emit func(int)) {
				if found {
					emit(y)
				}
				found = false // want `UDF passed to dataflow\.SemiJoinWith writes captured variable "found"`
			}
	})
}

// sharedThroughProbe is sharedThroughFactory for a join in two halves: what
// a Probe's joiner factory captures outlives every attempt of every
// partition, so a partition-local value parked there is written by all of
// them; and a Build's key function runs per partition too.
func sharedThroughProbe(l, r *dataflow.Dataset[int]) {
	hashed := 0
	built := dataflow.Build(l, func(v int) uint64 {
		hashed++ // want `UDF passed to dataflow\.Build writes captured variable "hashed"`
		return uint64(v)
	})
	var last int
	dataflow.Probe(built, r, func(v int) uint64 { return uint64(v) }, func(*dataflow.Lane) func(int, int, func(int)) {
		seen := 0
		return func(x, y int, emit func(int)) {
			seen++
			last = x // want `UDF passed to dataflow\.Probe writes captured variable "last"`
			emit(x + y + seen)
		}
	})
	_ = hashed + last
}

// arena stands in for what a row function keeps in its lane.
type arena struct{ carved int }

func arenaOf(lane *dataflow.Lane) *arena {
	a, ok := lane.State.(*arena)
	if !ok {
		a = new(arena)
		lane.State = a
	}
	return a
}

// laneState is what the lane is for: the factory takes its partition's state
// out of the lane it was handed, or puts it there, and the row function it
// returns works on it. Nothing leaves the attempt but rows.
func laneState(d *dataflow.Dataset[int]) {
	dataflow.FlatMapWith(d, func(lane *dataflow.Lane) func(int, func(int)) {
		a := arenaOf(lane)
		return func(v int, emit func(int)) {
			a.carved++
			emit(v + a.carved)
		}
	}, 1)
}

// parkedLane stores the lane, and state reached through it, where every other
// partition's closure can reach it. The lock orders the stores; it does not
// make the lane anybody's but the attempt's it was handed to.
func parkedLane(l, r *dataflow.Dataset[int]) {
	var mu sync.Mutex
	var lanes []*dataflow.Lane
	arenas := map[int]*arena{}
	var last *arena
	dataflow.FlatMapWith(l, func(lane *dataflow.Lane) func(int, func(int)) {
		a := arenaOf(lane)
		mu.Lock()
		lanes = append(lanes, lane) // want `factory passed to dataflow\.FlatMapWith stores its lane, or state reached through it, in captured variable "lanes"`
		arenas[len(arenas)] = a     // want `factory passed to dataflow\.FlatMapWith stores its lane, or state reached through it, in captured variable "arenas"`
		mu.Unlock()
		return func(v int, emit func(int)) { emit(v) }
	}, 1)
	key := func(v int) uint64 { return uint64(v) }
	handoff := make(chan *arena, 16) // roomy: the fixture is never run
	dataflow.JoinWith(l, r, key, key, func(lane *dataflow.Lane) func(int, int, func(int)) {
		state := &lane.State
		handoff <- arenaOf(lane) // want `factory passed to dataflow\.JoinWith sends its lane, or state reached through it, down a channel`
		return func(x, y int, emit func(int)) {
			mu.Lock()
			last = (*state).(*arena) // want `factory passed to dataflow\.JoinWith stores its lane, or state reached through it, in captured variable "last"`
			mu.Unlock()
			emit(x + y)
		}
	}, dataflow.RepartitionHash, 0)
	_, _, _ = lanes, arenas, last
}
