package dataflow

import (
	"reflect"
	"testing"
)

// laneMark is what the row functions of TestLaneIsThePartitions keep in a
// lane: whose it is and how many attempts have taken it.
type laneMark struct{ p, attempts int }

// TestLaneIsThePartitions: every attempt of partition p - of every stage, a
// retried one included - is handed the lane the partition's first attempt was
// handed, with what that left in State, and no attempt of another partition
// ever is. The row functions say so in their rows: each element comes out as
// the number of attempts its lane had seen when its attempt took it, or as -1
// from a lane another partition marked.
func TestLaneIsThePartitions(t *testing.T) {
	const workers, per = 4, 100
	e := env(workers)
	e.InjectFaults(&FaultPlan{Kills: []Kill{{Stage: 1, Partition: 1, Times: 2}, {Stage: 2, Partition: 0}}})
	counted := func(lane *Lane) func(int, func(int)) {
		mark, ok := lane.State.(*laneMark)
		if !ok {
			mark = &laneMark{p: -1}
			lane.State = mark
		}
		mark.attempts++
		return func(x int, emit func(int)) {
			p := x / per // FromSlice cuts 400 elements into four runs of 100
			if mark.p == -1 {
				mark.p = p
			}
			if mark.p != p {
				emit(-1)
				return
			}
			emit(p*per + mark.attempts)
		}
	}
	first := FlatMapWith(FromSlice(e, ints(workers*per)), counted, 1)
	second := FlatMapWith(Map(first, func(x int) int { return x / per * per }), counted, 1) // stage 2 is the Map
	third := FlatMapWith(Map(second, func(x int) int { return x / per * per }), counted, 1)
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	// Attempts a partition's lane has seen when the attempt that published takes
	// it: partition 1 lost two in stage 1, and partition 0's kill in stage 2 hit
	// the Map, which keeps nothing in the lane.
	want := [][]int{{1, 3, 1, 1}, {2, 4, 2, 2}, {3, 5, 3, 3}}
	for s, d := range []*Dataset[int]{first, second, third} {
		for p := 0; p < workers; p++ {
			part := d.Partition(p)
			if len(part) != per {
				t.Fatalf("stage %d partition %d: %d rows", s, p, len(part))
			}
			for _, x := range part {
				if x != p*per+want[s][p] {
					t.Fatalf("FlatMapWith %d, partition %d: row %d, want %d: the attempt was not handed the partition's lane as the last one left it",
						s+1, p, x, p*per+want[s][p])
				}
			}
		}
	}
	if got := e.Metrics().Retries; got != 3 {
		t.Fatalf("retries = %d, want 3", got)
	}
}

// laneJob is a job that leaves something in every part of a lane: a one-shot
// join's table, two routes and a row function's state.
func laneJob(e *Env) []int {
	key := func(x int) uint64 { return uint64(x % 61) }
	joined := Join(FromSlice(e, ints(500)), FromSlice(e, ints(300)), key, key, emitSum, RepartitionHash)
	return FlatMapWith(joined, func(lane *Lane) func(int, func(int)) {
		seen, _ := lane.State.(*int)
		if seen == nil {
			seen = new(int)
			lane.State = seen
		}
		return func(x int, emit func(int)) {
			*seen++
			emit(x + *seen)
		}
	}, 1).Collect()
}

// TestLanesAreDroppedBetweenJobs: an Env kept for the next job - the
// library's Environment, cmd/cypher -i - pins nothing of the last one. While
// a job runs every partition's lane holds its table, its route and its row
// functions' state; Finish and ResetMetrics let go of all of it, and the next
// job on the Env returns what a new Env returns.
func TestLanesAreDroppedBetweenJobs(t *testing.T) {
	const workers = 4
	want := laneJob(env(workers))
	if len(want) == 0 {
		t.Fatal("the job must produce rows to say anything")
	}
	e := env(workers)
	for job, end := range []func(){func() { _ = e.Finish() }, e.ResetMetrics, func() { _ = e.Finish() }} {
		e.Begin(nil)
		if got := laneJob(e); !reflect.DeepEqual(got, want) {
			t.Fatalf("job %d on a kept Env: rows differ from a new Env's", job+1)
		}
		if len(e.lanes) != workers {
			t.Fatalf("job %d: %d lanes for %d partitions", job+1, len(e.lanes), workers)
		}
		for p := range e.lanes {
			if l := &e.lanes[p]; l.State == nil || cap(l.keys) == 0 || cap(l.head) == 0 || cap(l.next) == 0 || cap(l.dest) == 0 || cap(l.to) == 0 {
				t.Fatalf("job %d: partition %d's lane is not in use: %+v", job+1, p, l)
			}
		}
		end()
		if e.lanes != nil {
			t.Fatalf("job %d: the Env still holds its lanes after the job", job+1)
		}
	}
}

// TestLaneScratchIsRewrittenFromEmpty: the table of a one-shot join and the
// route of an exchange lie over what the partition's last join and exchange
// left in the lane, on the same arrays when they fit. Joins of shrinking and
// growing build sides with unrelated keys, run one after the other on one Env
// with partition 0 of every stage killed once, return what each returns alone
// on a new Env; a kept table (Build) probed before and after them is not laid
// over a lane and reads the same.
func TestLaneScratchIsRewrittenFromEmpty(t *testing.T) {
	const workers = 4
	type spec struct{ build, probe, mod int }
	specs := []spec{{900, 700, 97}, {60, 900, 7}, {400, 30, 1}, {1300, 10, 211}}
	join := func(e *Env, s spec) []int {
		return Join(FromSlice(e, ints(s.build)), FromSlice(e, ints(s.probe)), modKey(s.mod), modKey(s.mod), emitSum, RepartitionHash).Collect()
	}
	probe := func(b *HashBuild[int], e *Env) []pair {
		return Probe(b, FromSlice(e, ints(300)), modKey(37), pairJoiner).Collect()
	}

	e := env(workers)
	var kills []Kill
	for stage := int64(1); stage <= 64; stage++ {
		kills = append(kills, Kill{Stage: stage, Partition: 0})
	}
	e.InjectFaults(&FaultPlan{Kills: kills})
	kept := Build(FromSlice(e, ints(400)), modKey(37))
	before := probe(kept, e)
	for p := range kept.tables {
		if l := &e.lanes[p]; len(kept.tables[p].keys) > 0 && len(l.keys) > 0 && &kept.tables[p].keys[0] == &l.keys[0] {
			t.Fatalf("partition %d: the kept table lies over the lane", p)
		}
	}
	room := make([]int, workers) // of every lane's key array: the largest build side so far
	for i, s := range specs {
		if got, want := join(e, s), join(env(workers), s); !reflect.DeepEqual(got, want) {
			t.Fatalf("join %d (%+v) after other joins on the Env: rows differ from the join alone", i, s)
		}
		rows := make([]int, workers)
		for x := 0; x < s.build; x++ {
			rows[mix64(modKey(s.mod)(x))%workers]++
		}
		for p := range room {
			room[p] = max(room[p], rows[p])
			if got := cap(e.lanes[p].keys); got != room[p] {
				t.Fatalf("join %d: partition %d's lane has room for %d keys, want %d: grown to the largest build side so far and no further", i, p, got, room[p])
			}
		}
	}
	if after := probe(kept, e); !reflect.DeepEqual(after, before) {
		t.Fatal("a kept table reads differently after one-shot joins used the lanes")
	}
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	if m := e.Metrics(); m.Retries < m.Stages/2 {
		t.Fatalf("schedule too thin: %d retries over %d stages", m.Retries, m.Stages)
	}
}
