package operators

import (
	"fmt"
	"strings"

	"gradoop/internal/cypher"
	"gradoop/internal/dataflow"
	"gradoop/internal/embedding"
)

// OptionalJoinEmbeddings implements OPTIONAL MATCH: a left outer join of the
// mandatory solutions with an optional sub-pattern's embeddings. Every left
// embedding survives; when no right extension passes the join keys, the
// morphism check and the group predicates, the right-only columns are bound
// to NULL.
type OptionalJoinEmbeddings struct {
	Left, Right Operator
	Morph       Morphism
	// Predicates are the OPTIONAL MATCH WHERE conjuncts evaluated on each
	// candidate extension (they decide matched-vs-null, unlike a post-join
	// filter).
	Predicates []cypher.Expr

	joinShape
}

// NewOptionalJoinEmbeddings builds the outer join on the variables shared
// between the two inputs; without shared variables every combination is
// tried (a cartesian outer join).
func NewOptionalJoinEmbeddings(left, right Operator, morph Morphism, predicates []cypher.Expr) *OptionalJoinEmbeddings {
	return &OptionalJoinEmbeddings{Left: left, Right: right, Morph: morph, Predicates: predicates,
		joinShape: newJoinShape(left, right)}
}

// Meta implements Operator.
func (op *OptionalJoinEmbeddings) Meta() *embedding.Meta { return op.outputMeta }

// Children implements Operator.
func (op *OptionalJoinEmbeddings) Children() []Operator { return []Operator{op.Left, op.Right} }

// Description implements Operator.
func (op *OptionalJoinEmbeddings) Description() string {
	return fmt.Sprintf("OptionalJoinEmbeddings(on=%s, preds=%d, %s/%s)",
		strings.Join(op.joinVars, ","), len(op.Predicates), op.Morph.Vertex, op.Morph.Edge)
}

// Evaluate implements Operator.
func (op *OptionalJoinEmbeddings) Evaluate() *dataflow.Dataset[embedding.Embedding] {
	left := op.Left.Evaluate()
	right := op.Right.Evaluate()
	return traced(op, left.Env(), func() *dataflow.Dataset[embedding.Embedding] {
		return op.evaluate(left, right)
	})
}

// evaluate is a hash join built over the optional side and probed with the
// mandatory one: a pair that passes keys, morphism and the group predicates
// is emitted merged, and a probe row none of whose candidates passed is
// emitted once they are through, its right-only columns and properties NULL.
func (op *OptionalJoinEmbeddings) evaluate(left, right *dataflow.Dataset[embedding.Embedding]) *dataflow.Dataset[embedding.Embedding] {
	lc, rc := op.leftCols, op.rightCols
	drop := op.dropCols
	meta := op.outputMeta
	lm, rm := op.Left.Meta(), op.Right.Meta()
	morph := op.Morph
	preds := op.Predicates
	nullCols, nullProps := rm.Columns()-len(drop), rm.PropColumns()
	return dataflow.OuterJoinWith(right, left,
		func(e embedding.Embedding) uint64 { return keyOf(e, rc) },
		func(e embedding.Embedding) uint64 { return keyOf(e, lc) },
		func(lane *dataflow.Lane) (pair func(r, l embedding.Embedding, emit func(embedding.Embedding)), after func(l embedding.Embedding, emit func(embedding.Embedding))) {
			sc := scratchOf(lane)
			matched := false
			pair = func(r, l embedding.Embedding, emit func(embedding.Embedding)) {
				if !sameKeys(l, r, lc, rc) || !sc.validPair(l, lm, r, rm, drop, morph) {
					return
				}
				// A candidate the predicates reject has been built; its bytes
				// stay in the slab's chunk, unreferenced.
				if merged := sc.slab.Merge(l, r, drop); passes(merged, meta, preds) {
					matched = true
					emit(merged)
				}
			}
			after = func(l embedding.Embedding, emit func(embedding.Embedding)) {
				if !matched {
					emit(sc.slab.PadNull(l, nullCols, nullProps))
				}
				matched = false
			}
			return pair, after
		})
}

func passes(e embedding.Embedding, meta *embedding.Meta, preds []cypher.Expr) bool {
	if len(preds) == 0 {
		return true
	}
	lookup := embeddingLookup(e, meta)
	for _, p := range preds {
		if !cypher.EvalPredicate(p, lookup) {
			return false
		}
	}
	return true
}
