package dataflow

// A Lane is the memory partition p of a job works in, from the job's first
// stage to its last - the task slot of the model, whose managed memory every
// operator chained through it shares. runStage hands lane p to partition p's
// attempt, and attempts of one partition run one at a time - a stage ends
// before the job's driving goroutine starts the next, and a retry runs in the
// goroutine of the attempt it replaces - so whoever holds a lane is the only
// goroutine that touches it, and nothing in it is locked.
//
// It holds two things. The engine's own one-shot scratch: the arrays of a
// hash table that dies with the attempt that built it and of an exchange's
// route, grown to the largest stage so far and rewritten from empty by
// whoever takes them, not reallocated. And one slot for the layer above,
// State, in which a row function keeps what it would otherwise set up once per
// attempt - the arena its rows are carved from, buffers it reuses from row to
// row. What a row function keeps there must hand no byte out twice: a retried
// attempt carves on behind what the killed one built and reuses none of it.
//
// Lanes belong to one Env, so concurrent jobs share nothing, and to one job:
// Finish and ResetMetrics drop them, and an Env kept between jobs pins nothing
// of the last one.
type Lane struct {
	// State is the layer above's: nil on a lane nothing has run on yet, then
	// whatever the first row function to take the lane put there. The engine
	// never reads it.
	State any

	// The one-shot join table's arrays (newJoinTable) and the route's
	// (newRoute).
	keys       []uint64
	head, next []int32
	dest       []uint32
	to         []routeTotal
}

// grown returns s at length n, on s's array if it has the room and on a new
// one if not. The elements are whatever the last user left: the taker writes
// every one of them, or clears them.
func grown[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return make([]T, n)
}
