package dataflow

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"gradoop/internal/govern"
	"gradoop/internal/trace"
)

// laneMark is what the row functions of TestLaneIsThePartitions keep in a
// lane: the job's Env, whose partition it is and how many attempts have taken
// it. A mark another job left - a lane is the process's - counts as none.
type laneMark struct {
	env         *Env
	p, attempts int
}

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
		if !ok || mark.env != e {
			mark = &laneMark{env: e, p: -1}
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
	first := FlatMapWith(FromSlice(e, ints(workers*per)), counted)
	second := FlatMapWith(Map(first, func(x int) int { return x / per * per }), counted) // stage 2 is the Map
	third := FlatMapWith(Map(second, func(x int) int { return x / per * per }), counted)
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

// freshProcess empties the spare list, as a process that has run no job
// finds it: the next job makes every lane it needs.
func freshProcess() {
	spareLanes.Lock()
	defer spareLanes.Unlock()
	clear(spareLanes.lanes)
	spareLanes.lanes, spareLanes.bytes = spareLanes.lanes[:0], 0
}

// spare returns the lanes on the spare list, the one given back last first.
func spare() []*Lane {
	spareLanes.Lock()
	defer spareLanes.Unlock()
	lanes := slices.Clone(spareLanes.lanes)
	slices.Reverse(lanes)
	return lanes
}

// laneJob is a job that leaves something in every part of a lane: a one-shot
// join's table, two routes, staged rows and a row function's
// state, a buffer it rewrites from empty on every attempt.
func laneJob(e *Env) []int {
	key := func(x int) uint64 { return uint64(x % 61) }
	joined := Join(FromSlice(e, ints(500)), FromSlice(e, ints(300)), key, key, emitSum, RepartitionHash)
	return FlatMapWith(joined, func(lane *Lane) func(int, func(int)) {
		seen, _ := lane.State.(*[]int)
		if seen == nil {
			seen = new([]int)
			lane.State = seen
		}
		*seen = (*seen)[:0]
		return func(x int, emit func(int)) {
			*seen = append(*seen, x)
			emit(x + len(*seen))
		}
	}).Collect()
}

// TestLanesAreDroppedBetweenJobs: an Env drops its lanes between jobs - a
// job borrows them from the process and gives them back - so an Env kept for
// the next job - the library's Environment, cmd/cypher -i - pins nothing of
// the last one, and the next job, on the same Env or another, works in what
// the last one gave back. While a
// job runs every partition's lane holds its table, its route, its staged rows
// and its row functions' state; Finish and ResetMetrics hand all of it to the
// spare list, and every job returns what a fresh process's first job returns.
func TestLanesAreDroppedBetweenJobs(t *testing.T) {
	const workers = 4
	freshProcess()
	want := laneJob(env(workers))
	if len(want) == 0 {
		t.Fatal("the job must produce rows to say anything")
	}
	e := env(workers)
	var given []*Lane
	for job, end := range []func(){func() { _ = e.Finish() }, e.ResetMetrics, func() { _ = e.Finish() }} {
		e.Begin(nil)
		if got := laneJob(e); !reflect.DeepEqual(got, want) {
			t.Fatalf("job %d on a kept Env: rows differ from a fresh process's", job+1)
		}
		if len(e.lanes) != workers {
			t.Fatalf("job %d: %d lanes for %d partitions", job+1, len(e.lanes), workers)
		}
		for p, l := range e.lanes {
			if l.State == nil || cap(l.keys) == 0 || cap(l.head) == 0 || cap(l.next) == 0 || cap(l.dest) == 0 || cap(l.to) == 0 || len(l.staged) == 0 {
				t.Fatalf("job %d: partition %d's lane is not in use: %+v", job+1, p, l)
			}
			if given != nil && !slices.Contains(given, l) {
				t.Fatalf("job %d: partition %d's lane is not one the last job gave back", job+1, p)
			}
		}
		held := slices.Clone(e.lanes)
		end()
		if len(e.lanes) != 0 {
			t.Fatalf("job %d: the Env still holds %d lanes after the job", job+1, len(e.lanes))
		}
		given = spare()[:workers]
		for _, l := range held {
			if !slices.Contains(given, l) {
				t.Fatalf("job %d: a lane the job held is not on the spare list", job+1)
			}
		}
	}
	other := env(workers)
	if got := laneJob(other); !reflect.DeepEqual(got, want) {
		t.Fatal("a job on a new Env, in the lanes the last job gave back: rows differ from a fresh process's")
	}
	for p, l := range other.lanes {
		if !slices.Contains(given, l) {
			t.Fatalf("a new Env's partition %d did not borrow a lane the last job gave back", p)
		}
	}
}

// TestWiderStageExtendsTheLanes: a stage of more partitions than the job
// holds lanes for borrows the rest and keeps the lanes it had.
func TestWiderStageExtendsTheLanes(t *testing.T) {
	e := env(4)
	mark := func(n int) []*Lane {
		return runStage(e, n, func(a *attempt) (*Lane, work) { return a.lane, work{} })
	}
	narrow, wide := mark(2), mark(4)
	if len(e.lanes) != 4 || wide[0] != narrow[0] || wide[1] != narrow[1] || wide[2] == nil || wide[3] == nil {
		t.Fatalf("a 2- then a 4-partition stage: lanes %p then %p", narrow, wide)
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

	freshProcess() // the lanes' room below is this test's
	e := env(workers)
	var kills []Kill
	for stage := int64(1); stage <= 64; stage++ {
		kills = append(kills, Kill{Stage: stage, Partition: 0})
	}
	e.InjectFaults(&FaultPlan{Kills: kills})
	kept := Build(FromSlice(e, ints(400)), modKey(37))
	before := probe(kept, e)
	for p := range kept.tables {
		if l := e.lanes[p]; len(kept.tables[p].keys) > 0 && len(l.keys) > 0 && &kept.tables[p].keys[0] == &l.keys[0] {
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

// ref is a row that points into the job that made it.
type ref struct{ p *int }

// refState is a lane State that keeps a pointer from row to row and drops it
// when its lane is given back.
type refState struct{ last *int }

func (s *refState) Release() { s.last = nil }

// refs is n rows, each pointing to its own number.
func refs(n int) []ref {
	out := make([]ref, n)
	for i := range out {
		out[i] = ref{p: new(int)}
		*out[i].p = i
	}
	return out
}

// checkSpare fails t if a lane on the spare list holds a staged row, a State
// holds a pointer, or the list keeps more than its bound; it returns the
// rows of room the lanes' staging buffers of ref keep.
func checkSpare(t *testing.T) (room int) {
	t.Helper()
	spareLanes.Lock()
	defer spareLanes.Unlock()
	var bytes int64
	for i, l := range spareLanes.lanes {
		bytes += l.kept
		if st, ok := l.State.(*refState); ok && st.last != nil {
			t.Errorf("spare lane %d: its State still points into the job", i)
		}
		for _, s := range l.staged {
			b, ok := s.(*staging[ref])
			if !ok {
				continue
			}
			room += cap(b.rows)
			for j, r := range b.rows[:cap(b.rows)] {
				if r.p != nil {
					t.Fatalf("spare lane %d: staged row %d of %d still points into the job", i, j, cap(b.rows))
				}
			}
		}
	}
	if bytes != spareLanes.bytes || bytes > spareLaneBytes {
		t.Errorf("the spare list keeps %d bytes and counts %d, bound %d", bytes, spareLanes.bytes, spareLaneBytes)
	}
	return room
}

// TestGivenBackLaneHoldsNothing: a lane on the spare list keeps the capacity
// of its arrays and no pointer into the job that gave it back - no staged
// row, nothing its State kept from row to row - and the list keeps no more
// than spareLaneBytes: after a job that completed, after a cartesian product
// the governor killed mid-probe with its staging buffers grown to the budget,
// and when a lane alone is over the bound, which is then dropped.
func TestGivenBackLaneHoldsNothing(t *testing.T) {
	key := func(r ref) uint64 { return uint64(*r.p % 7) }
	left := func(l, _ ref, emit func(ref)) { emit(l) }

	t.Run("completed", func(t *testing.T) {
		freshProcess()
		e := env(4)
		in := FromSlice(e, refs(2000))
		kept := FlatMapWith(in, func(lane *Lane) func(ref, func(ref)) {
			st, _ := lane.State.(*refState)
			if st == nil {
				st = new(refState)
				lane.State = st
			}
			return func(r ref, emit func(ref)) {
				st.last = r.p
				emit(r)
			}
		})
		joined := Join(kept, in, key, key, left, RepartitionHash)
		copied := MapPartition(joined, func(part []ref, emit func(ref)) {
			for _, r := range part {
				emit(r)
			}
		})
		if err := e.Finish(); err != nil {
			t.Fatal(err)
		}
		var pairs int64
		for k := 0; k < 7; k++ {
			n := int64((2000 - k + 6) / 7) // of 0..1999, those that are k mod 7
			pairs += n * n
		}
		if got := copied.Count(); got != pairs {
			t.Fatalf("the job wrote %d rows, want %d", got, pairs)
		}
		if room := checkSpare(t); room < 2000 {
			t.Fatalf("the lanes given back keep room for %d rows: the check checks nothing", room)
		}
	})

	t.Run("killed", func(t *testing.T) {
		freshProcess()
		e, b, r := governedEnv(t, 4, 1<<20)
		same := func(ref) uint64 { return 1 }
		side := refs(150)
		out := FromSlice(e, side)
		for i := 0; i < 3; i++ {
			out = Join(FromSlice(e, side), out, same, same, left, RepartitionHash)
		}
		if err := e.Finish(); !errors.Is(err, govern.ErrMemoryBudget) {
			t.Fatalf("job error = %v, want ErrMemoryBudget", err)
		}
		if room := checkSpare(t); room < 1<<14 {
			t.Fatalf("the killed product's lanes keep room for %d rows: it did not stage to the budget", room)
		}
		r.Release()
		if got := b.Reserved(); got != 0 {
			t.Errorf("broker holds %d B after release, want 0", got)
		}
	})

	t.Run("over the bound", func(t *testing.T) {
		freshProcess()
		small, big := new(Lane), &Lane{keys: make([]uint64, spareLaneBytes/8+1)}
		giveBack([]*Lane{small, big})
		if lanes := spare(); len(lanes) != 1 || lanes[0] != small {
			t.Fatalf("the spare list holds %d lanes, want only the one under the bound", len(lanes))
		}
		checkSpare(t)
	})
}

// TestCurrentStageShowsLiveProgress: while a stage runs, CurrentStage
// reports for a partition whose attempt has polled the rows the attempt had
// read and staged at its last poll, before it commits them - stored, not
// added, so a retried attempt's start again from zero and not from what the
// killed one reached. What the attempt commits, and the span, are its rows.
func TestCurrentStageShowsLiveProgress(t *testing.T) {
	e := env(1)
	col := trace.NewCollector()
	e.SetTracer(col)
	e.InjectFaults(&FaultPlan{Kills: []Kill{{Stage: 1, Partition: 0}}})
	reached, resume, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var out *Dataset[int]
	go func() {
		defer close(done)
		attempts := 0
		out = FlatMapWith(FromSlice(e, ints(3000)), func(*Lane) func(int, func(int)) {
			attempts++
			return func(x int, emit func(int)) {
				if x%2 == 0 {
					emit(x)
				}
				if x == 1000 && attempts == 2 {
					close(reached)
					<-resume
				}
			}
		})
	}()
	<-reached
	_, kind, parts := e.CurrentStage()
	close(resume)
	<-done
	// The retried attempt last polled before element 767: it had read 767
	// rows and staged the even ones among them.
	if kind != "FlatMap" || len(parts) != 1 || parts[0].RowsIn != 767 || parts[0].RowsOut != 384 {
		t.Fatalf("mid-stage: %s %+v, want FlatMap with 767 rows read and 384 staged", kind, parts)
	}
	if err := e.Finish(); err != nil {
		t.Fatal(err)
	}
	if len(out.Partition(0)) != 1500 {
		t.Fatalf("the stage wrote %d rows", len(out.Partition(0)))
	}
	if spans := col.Spans(); len(spans) != 1 || spans[0].Parts[0].RowsIn != 3000 || spans[0].Parts[0].RowsOut != 1500 || spans[0].Parts[0].Retries != 1 {
		t.Fatalf("the span reads %+v, want 3000 rows in, 1500 out and one retry", spans)
	}
}
