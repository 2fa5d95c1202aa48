package operators

import (
	"fmt"
	"sort"
	"strings"

	"gradoop/internal/dataflow"
	"gradoop/internal/embedding"
)

// joinShape is what a join of two inputs reads off their metadata, the same
// for an inner, an outer and a semi join: the variables both bind, sorted -
// a canonical order makes the shuffle key deterministic for a variable set,
// enabling partition reuse across joins on the same variables - with their
// columns on either side, the right columns a merged row leaves out because
// the left already has them, and the merged row's metadata.
type joinShape struct {
	joinVars   []string
	leftCols   []int
	rightCols  []int
	dropCols   []int
	outputMeta *embedding.Meta
}

func newJoinShape(lm, rm *embedding.Meta) joinShape {
	sh := joinShape{joinVars: lm.SharedVars(rm)}
	sort.Strings(sh.joinVars)
	sh.leftCols = make([]int, len(sh.joinVars))
	sh.rightCols = make([]int, len(sh.joinVars))
	for i, v := range sh.joinVars {
		sh.leftCols[i], _ = lm.Column(v)
		sh.rightCols[i], _ = rm.Column(v)
	}
	sh.outputMeta, sh.dropCols = lm.Merge(rm)
	return sh
}

// JoinEmbeddings combines two sub-query results on their shared variables.
// It uses a flat join (§3.1): a joined embedding is emitted only if the
// configured morphism semantics hold, avoiding a separate filter stage.
type JoinEmbeddings struct {
	Left, Right Operator
	Morph       Morphism
	Hint        dataflow.JoinHint

	joinShape
}

// NewJoinEmbeddings builds a join on the variables shared between the two
// inputs. It panics if the inputs share no variables; the planner uses
// NewCartesianProduct for that case.
func NewJoinEmbeddings(left, right Operator, morph Morphism, hint dataflow.JoinHint) *JoinEmbeddings {
	op := &JoinEmbeddings{Left: left, Right: right, Morph: morph, Hint: hint,
		joinShape: newJoinShape(left.Meta(), right.Meta())}
	if len(op.joinVars) == 0 {
		panic("operators: JoinEmbeddings requires shared variables")
	}
	return op
}

// Meta implements Operator.
func (op *JoinEmbeddings) Meta() *embedding.Meta { return op.outputMeta }

// Children implements Operator.
func (op *JoinEmbeddings) Children() []Operator { return []Operator{op.Left, op.Right} }

// Description implements Operator.
func (op *JoinEmbeddings) Description() string {
	return fmt.Sprintf("JoinEmbeddings(on=%s, %s/%s)",
		strings.Join(op.joinVars, ","), op.Morph.Vertex, op.Morph.Edge)
}

// keyOf combines the identifiers at the join columns into one shuffle key.
func keyOf(e embedding.Embedding, cols []int) uint64 {
	var h uint64 = 0x9e3779b97f4a7c15
	for _, c := range cols {
		h = (h ^ uint64(e.ID(c))) * 0x100000001b3
		h ^= h >> 29
	}
	return h
}

// sameKeys verifies actual id equality at the join columns (guarding
// against hash collisions).
func sameKeys(l, r embedding.Embedding, lc, rc []int) bool {
	for i := range lc {
		if l.ID(lc[i]) != r.ID(rc[i]) {
			return false
		}
	}
	return true
}

// partitionTag derives the partition-reuse tag for a join variable set: two
// joins on the same variables shuffle identically, so the second can reuse
// the first's partitioning.
func partitionTag(vars []string) uint64 {
	return dataflow.HashString(strings.Join(vars, "\x00")) | 1
}

// Evaluate implements Operator.
func (op *JoinEmbeddings) Evaluate() *dataflow.Dataset[embedding.Embedding] {
	left := op.Left.Evaluate()
	right := op.Right.Evaluate()
	return traced(op, left.Env(), func() *dataflow.Dataset[embedding.Embedding] {
		return op.evaluate(left, right)
	})
}

func (op *JoinEmbeddings) evaluate(left, right *dataflow.Dataset[embedding.Embedding]) *dataflow.Dataset[embedding.Embedding] {
	lc, rc := op.leftCols, op.rightCols
	drop := op.dropCols
	lm, rm := op.Left.Meta(), op.Right.Meta()
	morph := op.Morph
	return dataflow.JoinWith(left, right,
		func(e embedding.Embedding) uint64 { return keyOf(e, lc) },
		func(e embedding.Embedding) uint64 { return keyOf(e, rc) },
		func() func(l, r embedding.Embedding, emit func(embedding.Embedding)) {
			var sc scratch
			return func(l, r embedding.Embedding, emit func(embedding.Embedding)) {
				// Keys and morphism are checked on the two inputs: a rejected
				// candidate is never materialized.
				if sameKeys(l, r, lc, rc) && sc.validPair(l, lm, r, rm, drop, morph) {
					emit(sc.slab.Merge(l, r, drop))
				}
			}
		}, op.Hint, partitionTag(op.joinVars))
}

// CartesianProduct combines two sub-queries without shared variables. It
// broadcasts the (expectedly smaller) left input, which is how a dataflow
// system realizes a cross join.
type CartesianProduct struct {
	Left, Right Operator
	Morph       Morphism

	outputMeta *embedding.Meta
}

// NewCartesianProduct builds a cross join.
func NewCartesianProduct(left, right Operator, morph Morphism) *CartesianProduct {
	outputMeta, _ := left.Meta().Merge(right.Meta())
	return &CartesianProduct{Left: left, Right: right, Morph: morph, outputMeta: outputMeta}
}

// Meta implements Operator.
func (op *CartesianProduct) Meta() *embedding.Meta { return op.outputMeta }

// Children implements Operator.
func (op *CartesianProduct) Children() []Operator { return []Operator{op.Left, op.Right} }

// Description implements Operator.
func (op *CartesianProduct) Description() string { return "CartesianProduct" }

// Evaluate implements Operator.
func (op *CartesianProduct) Evaluate() *dataflow.Dataset[embedding.Embedding] {
	left := op.Left.Evaluate()
	right := op.Right.Evaluate()
	lm, rm := op.Left.Meta(), op.Right.Meta()
	morph := op.Morph
	return traced(op, left.Env(), func() *dataflow.Dataset[embedding.Embedding] {
		return dataflow.JoinWith(left, right,
			func(embedding.Embedding) uint64 { return 0 },
			func(embedding.Embedding) uint64 { return 0 },
			func() func(l, r embedding.Embedding, emit func(embedding.Embedding)) {
				var sc scratch
				return func(l, r embedding.Embedding, emit func(embedding.Embedding)) {
					if sc.validPair(l, lm, r, rm, nil, morph) {
						emit(sc.slab.Merge(l, r, nil))
					}
				}
			}, dataflow.BroadcastLeft, 0)
	})
}
