package dataflow

import (
	"sync"
	"unsafe"
)

// A Lane is the memory a partition works in - the task slot of the model,
// whose managed memory every operator chained through it shares and which
// outlives the job. A job borrows a lane per partition from the process at
// its first stage (borrowLanes) and gives them back at Finish or
// ResetMetrics (giveBack). runStage hands lane p to partition p's attempt,
// and attempts of one partition run one at a time - a stage ends before the
// job's driving goroutine starts the next, and a retry runs in the goroutine
// of the attempt it replaces - so whoever holds a lane is the only goroutine
// that touches it, at most one Env holds it, and nothing in it is locked.
//
// It holds the engine's scratch - the arrays of a hash table that dies with
// the attempt that built it and of an exchange's route, and a staging buffer
// per element type that every stage body writes its output into before it
// publishes a copy (publish) - grown to the largest stage so far and
// rewritten from empty by whoever takes it, not reallocated. And one slot for
// the layer above, State, in which a row function keeps what it would
// otherwise set up once per attempt - the arena its rows are carved from,
// buffers it reuses from row to row. What a row function keeps there must
// hand no byte out twice: a retried attempt, or the next job, carves on
// behind what the last one built and reuses none of it.
//
// A lane given back keeps the capacity of its arrays, but no pointer into
// the job's rows or the values it read: its staging buffers are cleared and
// a State that is a Releaser is told to drop its own.
type Lane struct {
	// State is the layer above's: nil on a lane nothing has run on yet, then
	// whatever the first row function to take the lane put there.
	State any

	// The one-shot join table's arrays (newJoinTable) and the route's
	// (newRoute).
	keys       []uint64
	head, next []int32
	dest       []uint32
	to         []routeTotal

	staged []stager // one staging buffer per element type (stagingOf)
	kept   int64    // the bytes of the arrays, as of the last give-back
}

// A Releaser is a Lane's State that keeps pointers into a job's rows or the
// values it read from row to row: Release drops them, keeping the capacity,
// when the lane is given back.
type Releaser interface{ Release() }

// grown returns s at length n, on s's array if it has the room and on a new
// one if not. The elements are whatever the last user left: the taker writes
// every one of them, or clears them.
func grown[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return make([]T, n)
}

// A stager is a staging buffer of some element type: release clears the
// rows any use left in it and reports the bytes it keeps.
type stager interface{ release() int64 }

// staging is a lane's output buffer for elements of type U; high is the most
// rows any use since the last give-back left in it. at is the attempt writing
// into it now, and emit and held its emit callbacks, without and with a
// governor (stage): made the first time a stage asks for one and kept with
// the buffer, so that an attempt allocates none.
type staging[U any] struct {
	rows       []U
	high       int
	at         *attempt
	emit, held func(U)
}

func (s *staging[U]) release() int64 {
	clear(s.rows[:max(s.high, len(s.rows))])
	s.rows, s.high, s.at = s.rows[:0], 0, nil
	return int64(cap(s.rows)) * int64(unsafe.Sizeof(*new(U)))
}

// stage returns the staging buffer for U of a's lane, empty, and the emit
// callback of a that appends to it: it counts the row and, under a governor,
// holds its accounted bytes. A lane holds one buffer per element type a stage
// has written on it, a handful in all.
func stage[U any](a *attempt) (*[]U, func(U)) {
	b := stagingOf[U](a.lane)
	b.high = max(b.high, len(b.rows))
	b.rows, b.at = b.rows[:0], a
	if a.env.governor == nil {
		if b.emit == nil {
			b.emit = func(u U) {
				b.rows = append(b.rows, u)
				b.at.out++
			}
		}
		return &b.rows, b.emit
	}
	if b.held == nil {
		sz := sizingOf[U]()
		b.held = func(u U) {
			b.rows = append(b.rows, u)
			b.at.out++
			b.at.hold(sz.of(&b.rows[len(b.rows)-1]))
		}
	}
	return &b.rows, b.held
}

// stagingOf returns lane's staging buffer for U, made on the first call.
func stagingOf[U any](lane *Lane) *staging[U] {
	for _, s := range lane.staged {
		if b, ok := s.(*staging[U]); ok {
			return b
		}
	}
	b := new(staging[U])
	lane.staged = append(lane.staged, b)
	return b
}

// release empties the lane for the spare list and sets kept. A race build
// (lane_race.go) also scribbles over the engine's arrays, so that a use
// after give-back reads garbage - a chain that leads out of any table, a
// route to no partition - not the right answer by luck.
func (l *Lane) release() {
	if r, ok := l.State.(Releaser); ok {
		r.Release()
	}
	l.kept = 8*int64(cap(l.keys)) + 4*int64(cap(l.head)+cap(l.next)+cap(l.dest)) +
		int64(unsafe.Sizeof(routeTotal{}))*int64(cap(l.to))
	for _, s := range l.staged {
		l.kept += s.release()
	}
	if scribbleLanes {
		scribble(l.keys[:cap(l.keys)], 0xdeadbeefdeadbeef)
		scribble(l.head[:cap(l.head)], -0x21524111)
		scribble(l.next[:cap(l.next)], -0x21524111)
		scribble(l.dest[:cap(l.dest)], 0xdeadbeef)
		scribble(l.to[:cap(l.to)], routeTotal{count: -1, bytes: -1})
	}
}

func scribble[T any](a []T, v T) {
	for i := range a {
		a[i] = v
	}
}

// spareLaneBytes bounds the arrays of the lanes the process keeps between
// jobs (a State's slab keeps up to 128 KiB a lane on top). The four lanes of
// a request of the benchmark's classes keep at most 1.1 MiB (SF 3), so the
// list holds seven such jobs' lanes at once; a lane it has no room for - one
// a blowup grew before the governor killed it - is left to the collector.
const spareLaneBytes = 8 << 20

// spareLanes is the lanes no job holds, the one given back last on top.
var spareLanes struct {
	sync.Mutex
	lanes []*Lane
	bytes int64
}

// borrowLanes extends lanes to n lanes, taking them from the spare list and
// making any it lacks.
func borrowLanes(lanes []*Lane, n int) []*Lane {
	s := &spareLanes
	s.Lock()
	for ; len(lanes) < n && len(s.lanes) > 0; s.lanes = s.lanes[:len(s.lanes)-1] {
		l := s.lanes[len(s.lanes)-1]
		s.lanes[len(s.lanes)-1] = nil
		s.bytes -= l.kept
		lanes = append(lanes, l)
	}
	s.Unlock()
	for len(lanes) < n {
		lanes = append(lanes, new(Lane))
	}
	return lanes
}

// giveBack releases lanes, puts as many on the spare list as its bound has
// room for and returns the array emptied, for the Env's next job.
func giveBack(lanes []*Lane) []*Lane {
	for _, l := range lanes {
		l.release()
	}
	s := &spareLanes
	s.Lock()
	for _, l := range lanes {
		if s.bytes+l.kept <= spareLaneBytes {
			s.lanes = append(s.lanes, l)
			s.bytes += l.kept
		}
	}
	s.Unlock()
	clear(lanes)
	return lanes[:0]
}
