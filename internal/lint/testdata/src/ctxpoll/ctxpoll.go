// Package dataflow is a miniature stand-in for the engine's dataflow package.
// The ctxpoll analyzer matches the unexported runStage, (*attempt).tick and
// (*Env).aborted by package path, so this fixture is type-checked under the
// real import path gradoop/internal/dataflow with stubs of just that API.
package dataflow

const cancelCheckMask = 255

type (
	Env     struct{}
	attempt struct{ p int }
	work    struct{ cpu int64 }
)

func (e *Env) aborted() bool       { return false }
func (a *attempt) tick(i int) bool { return true }

func runStage[O any](e *Env, n int, body func(a *attempt) (O, work)) []O {
	out := make([]O, n)
	for p := range out {
		out[p], _ = body(&attempt{p: p})
	}
	return out
}

type Dataset[T any] struct{ env *Env }

func MapPartition[T, U any](d *Dataset[T], f func([]T, func(U))) *Dataset[U] {
	return &Dataset[U]{env: d.env}
}

func unpolledStage(env *Env, parts [][]int) []int {
	return runStage(env, len(parts), func(a *attempt) (int, work) {
		sum := 0
		for _, v := range parts[a.p] { // want `never polls cancellation`
			sum += v
		}
		return sum, work{}
	})
}

func polledStage(env *Env, parts [][]int) []int {
	return runStage(env, len(parts), func(a *attempt) (int, work) {
		sum := 0
		for i, v := range parts[a.p] {
			if !a.tick(i) {
				return 0, work{}
			}
			sum += v
		}
		return sum, work{}
	})
}

func unpolledUDF(d *Dataset[int]) {
	MapPartition(d, func(part []int, emit func(int)) {
		for _, v := range part { // want `never polls cancellation`
			emit(v)
		}
	})
}

// polledUDF owns its loop and has no attempt: it polls the Env.
func polledUDF(d *Dataset[int]) {
	MapPartition(d, func(part []int, emit func(int)) {
		for i, v := range part {
			if i&cancelCheckMask == cancelCheckMask && d.env.aborted() {
				return
			}
			emit(v)
		}
	})
}

// workerVector ranges over the worker-count-sized [][]int partition vector;
// its trip count is the worker count, not the data size, so it is exempt.
func workerVector(env *Env, out [][]int) []int {
	return runStage(env, len(out), func(*attempt) (int, work) {
		total := 0
		for q := range out {
			total += len(out[q])
		}
		return total, work{}
	})
}

// unpolledMap ranges over a data-sized map; maps count too.
func unpolledMap(env *Env, groups []map[uint64]int) []int {
	return runStage(env, len(groups), func(a *attempt) (int, work) {
		total := 0
		for _, v := range groups[a.p] { // want `never polls cancellation`
			total += v
		}
		return total, work{}
	})
}
