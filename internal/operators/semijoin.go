package operators

import (
	"fmt"
	"sort"
	"strings"

	"gradoop/internal/dataflow"
	"gradoop/internal/embedding"
)

// SemiJoinEmbeddings implements exists() pattern predicates: a left
// embedding survives iff at least one right embedding extends it
// consistently (same join keys, morphism holds on the combined binding).
// With Negated it becomes an anti join (NOT exists). The right side's
// columns never appear in the output — its metadata is the left input's.
type SemiJoinEmbeddings struct {
	Left, Right Operator
	Morph       Morphism
	Negated     bool

	joinVars  []string
	leftCols  []int
	rightCols []int
	dropCols  []int
}

// NewSemiJoinEmbeddings builds the semi (or anti) join on the variables
// shared between the inputs; with no shared variables the right side acts
// as a global non-emptiness test.
func NewSemiJoinEmbeddings(left, right Operator, morph Morphism, negated bool) *SemiJoinEmbeddings {
	lm, rm := left.Meta(), right.Meta()
	shared := lm.SharedVars(rm)
	sort.Strings(shared)
	leftCols := make([]int, len(shared))
	rightCols := make([]int, len(shared))
	for i, v := range shared {
		lc, _ := lm.Column(v)
		rc, _ := rm.Column(v)
		leftCols[i] = lc
		rightCols[i] = rc
	}
	_, dropCols := lm.Merge(rm)
	return &SemiJoinEmbeddings{
		Left: left, Right: right, Morph: morph, Negated: negated,
		joinVars: shared, leftCols: leftCols, rightCols: rightCols,
		dropCols: dropCols,
	}
}

// Meta implements Operator.
func (op *SemiJoinEmbeddings) Meta() *embedding.Meta { return op.Left.Meta() }

// Children implements Operator.
func (op *SemiJoinEmbeddings) Children() []Operator { return []Operator{op.Left, op.Right} }

// Description implements Operator.
func (op *SemiJoinEmbeddings) Description() string {
	kind := "SemiJoinEmbeddings"
	if op.Negated {
		kind = "AntiJoinEmbeddings"
	}
	return fmt.Sprintf("%s(on=%s, %s/%s)", kind, strings.Join(op.joinVars, ","), op.Morph.Vertex, op.Morph.Edge)
}

// Evaluate implements Operator.
func (op *SemiJoinEmbeddings) Evaluate() *dataflow.Dataset[embedding.Embedding] {
	left := op.Left.Evaluate()
	right := op.Right.Evaluate()
	return traced(op, left.Env(), func() *dataflow.Dataset[embedding.Embedding] {
		return op.evaluate(left, right)
	})
}

func (op *SemiJoinEmbeddings) evaluate(left, right *dataflow.Dataset[embedding.Embedding]) *dataflow.Dataset[embedding.Embedding] {
	lc, rc := op.leftCols, op.rightCols
	drop := op.dropCols
	lm, rm := op.Left.Meta(), op.Right.Meta()
	morph := op.Morph
	negated := op.Negated
	return dataflow.CoGroup(left, right,
		func(e embedding.Embedding) uint64 { return keyOf(e, lc) },
		func(e embedding.Embedding) uint64 { return keyOf(e, rc) },
		func(_ uint64, ls, rs []embedding.Embedding, emit func(embedding.Embedding)) {
			var sc scratch
			for _, l := range ls {
				found := false
				for _, r := range rs {
					// The combined binding is checked on the two inputs; a semi
					// join never builds it.
					if sameKeys(l, r, lc, rc) && sc.validPair(l, lm, r, rm, drop, morph) {
						found = true
						break
					}
				}
				if found != negated {
					emit(l)
				}
			}
		})
}
