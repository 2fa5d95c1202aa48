// Package envmix exercises the envmix analyzer: binary dataflow
// transformations over datasets created on provably different environments
// must be flagged; same-environment combinations must not.
package envmix

import "gradoop/internal/dataflow"

func crossEnvUnion() {
	a := dataflow.NewEnv(dataflow.DefaultConfig(2))
	b := dataflow.NewEnv(dataflow.DefaultConfig(2))
	l := dataflow.FromSlice(a, []int{1, 2})
	r := dataflow.FromSlice(b, []int{3, 4})
	dataflow.Union(l, r) // want `operands of dataflow\.Union belong to different environments`
}

// crossEnvDerived checks that origins survive derivation: a dataset mapped
// from env a still belongs to a.
func crossEnvDerived() {
	a := dataflow.NewEnv(dataflow.DefaultConfig(2))
	b := dataflow.NewEnv(dataflow.DefaultConfig(2))
	l := dataflow.FromSlice(a, []int{1, 2})
	r := dataflow.FromSlice(b, []int{3, 4})
	m := dataflow.Map(l, func(v int) int { return v + 1 })
	key := func(v int) uint64 { return uint64(v) }
	dataflow.Join(m, r, key, key, func(x, y int, emit func(int)) { // want `operands of dataflow\.Join belong to different environments`
		emit(x + y)
	}, dataflow.RepartitionHash)
}

func crossEnvCoGroup() {
	a := dataflow.NewEnv(dataflow.DefaultConfig(2))
	b := dataflow.NewEnv(dataflow.DefaultConfig(2))
	l := dataflow.FromSlice(a, []int{1, 2})
	r := dataflow.FromSlice(b, []int{3, 4})
	key := func(v int) uint64 { return uint64(v) }
	dataflow.CoGroup(l, r, key, key, func(_ uint64, ls, rs []int, emit func(int)) { // want `operands of dataflow\.CoGroup belong to different environments`
		emit(len(ls) + len(rs))
	})
}

// sameEnv combines datasets of one environment; nothing to report.
func sameEnv() {
	env := dataflow.NewEnv(dataflow.DefaultConfig(2))
	l := dataflow.FromSlice(env, []int{1, 2})
	r := dataflow.FromSlice(env, []int{3, 4})
	dataflow.Union(l, r)
	m := dataflow.Map(l, func(v int) int { return v * 2 })
	dataflow.Union(m, r)
}

// suppressed shows the escape hatch: a lint:ignore directive silences the
// finding on the next line.
func suppressed() {
	a := dataflow.NewEnv(dataflow.DefaultConfig(2))
	b := dataflow.NewEnv(dataflow.DefaultConfig(2))
	l := dataflow.FromSlice(a, []int{1, 2})
	r := dataflow.FromSlice(b, []int{3, 4})
	//lint:ignore envmix deliberate cross-env fixture
	dataflow.Union(l, r)
}

// crossEnvProbe builds on one environment and probes with a dataset of
// another: the Build carries its input's origin.
func crossEnvProbe() {
	a := dataflow.NewEnv(dataflow.DefaultConfig(2))
	b := dataflow.NewEnv(dataflow.DefaultConfig(2))
	key := func(v int) uint64 { return uint64(v) }
	built := dataflow.Build(dataflow.FromSlice(a, []int{1, 2}), key)
	r := dataflow.FromSlice(b, []int{3, 4})
	dataflow.Probe(built, r, key, func() func(int, int, func(int)) { // want `operands of dataflow\.Probe belong to different environments`
		return func(x, y int, emit func(int)) { emit(x + y) }
	})
	dataflow.Probe(built, dataflow.FromSlice(a, []int{5}), key, func() func(int, int, func(int)) {
		return func(x, y int, emit func(int)) { emit(x + y) }
	})
}

// crossEnvUnionAll: any operand of the n-ary union may be the odd one out.
func crossEnvUnionAll() {
	a := dataflow.NewEnv(dataflow.DefaultConfig(2))
	b := dataflow.NewEnv(dataflow.DefaultConfig(2))
	l := dataflow.FromSlice(a, []int{1, 2})
	m := dataflow.Map(l, func(v int) int { return v + 1 })
	r := dataflow.FromSlice(b, []int{3, 4})
	dataflow.UnionAll(l, m, r) // want `operands of dataflow\.UnionAll belong to different environments`
	dataflow.UnionAll(l, m, l)
}

// crossEnvIteration seeds an iteration over one environment's working set
// with another's results.
func crossEnvIteration() {
	a := dataflow.NewEnv(dataflow.DefaultConfig(2))
	b := dataflow.NewEnv(dataflow.DefaultConfig(2))
	working := dataflow.FromSlice(a, []int{1, 2})
	seed := dataflow.FromSlice(b, []string{"zero"})
	body := func(_ int, w *dataflow.Dataset[int]) (*dataflow.Dataset[int], *dataflow.Dataset[string]) {
		return nil, nil
	}
	dataflow.BulkIteration(working, seed, 3, body) // want `operands of dataflow\.BulkIteration belong to different environments`
	dataflow.BulkIteration(working, nil, 3, body)
}
