package dataflow

// BulkIteration runs Flink-style while-loop semantics over a working set
// (§3.1, ExpandEmbeddings): body receives the current working set and the
// 1-based iteration number, and returns the next working set plus the
// elements that iteration adds to the result (nil for none). Iteration stops
// when the working set becomes empty, maxIterations is reached, or the job
// fails (a cancelled or failed environment drains the working set, so
// runaway expansions abort between supersteps as well as inside them). The
// returned dataset is seed - what is in the result before the first
// iteration, nil for nothing - followed by every iteration's results in
// order, concatenated once, when the loop is over: the rows an iteration
// found are copied one time, not once per later iteration.
func BulkIteration[W, R any](initial *Dataset[W], seed *Dataset[R], maxIterations int,
	body func(iteration int, working *Dataset[W]) (next *Dataset[W], results *Dataset[R])) *Dataset[R] {
	env := initial.Env()
	var found []*Dataset[R]
	if seed != nil {
		if mismatch(env, seed.env, "BulkIteration") {
			return Empty[R](env)
		}
		found = append(found, seed)
	}
	working := initial
	for it := 1; it <= maxIterations; it++ {
		// Convergence is a global decision: in a distributed job every
		// process must take the same number of supersteps or the collective
		// exchanges inside the body deadlock, so emptiness is checked across
		// all workers (a local no-op without a transport).
		if env.Failed() || working.GlobalIsEmpty() {
			break
		}
		// Tag traced stages with their superstep so trace exports show where
		// each iteration's time went.
		env.MarkIteration(it)
		next, results := body(it, working)
		if results != nil {
			found = append(found, results)
		}
		if next == nil {
			break
		}
		working = next
	}
	env.MarkIteration(0)
	if len(found) == 0 {
		return Empty[R](env)
	}
	return UnionAll(found...)
}
