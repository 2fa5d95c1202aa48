package operators

import (
	"fmt"
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

	joinShape
}

// NewSemiJoinEmbeddings builds the semi (or anti) join on the variables
// shared between the inputs; with no shared variables the right side acts
// as a global non-emptiness test.
func NewSemiJoinEmbeddings(left, right Operator, morph Morphism, negated bool) *SemiJoinEmbeddings {
	return &SemiJoinEmbeddings{Left: left, Right: right, Morph: morph, Negated: negated,
		joinShape: newJoinShape(left, right)}
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
func (op *SemiJoinEmbeddings) Evaluate(r *Run) *dataflow.Dataset[embedding.Embedding] {
	left := op.Left.Evaluate(r)
	right := op.Right.Evaluate(r)
	return traced(op, r, func() *dataflow.Dataset[embedding.Embedding] {
		return op.evaluate(left, right)
	})
}

// evaluate is a hash join built over the existence side and probed with the
// mandatory one: a pair only decides whether the probe row has an extension -
// the first that does ends the search - and the row itself is passed on, or
// not, once that is known.
func (op *SemiJoinEmbeddings) evaluate(left, right *dataflow.Dataset[embedding.Embedding]) *dataflow.Dataset[embedding.Embedding] {
	lc, rc := op.leftCols, op.rightCols
	drop := op.dropCols
	lm, rm := op.Left.Meta(), op.Right.Meta()
	morph := op.Morph
	negated := op.Negated
	return dataflow.SemiJoinWith(right, left,
		func(e embedding.Embedding) uint64 { return keyOf(e, rc) },
		func(e embedding.Embedding) uint64 { return keyOf(e, lc) },
		func(lane *dataflow.Lane) (match func(r, l embedding.Embedding) bool, after func(l embedding.Embedding, emit func(embedding.Embedding))) {
			sc := scratchOf(lane)
			found := false
			match = func(r, l embedding.Embedding) bool {
				// The combined binding is checked on the two inputs; a semi
				// join never builds it.
				found = sameKeys(l, r, lc, rc) && sc.validPair(l, lm, r, rm, drop, morph)
				return found
			}
			after = func(l embedding.Embedding, emit func(embedding.Embedding)) {
				if found != negated {
					emit(l)
				}
				found = false
			}
			return match, after
		})
}
