package operators

import (
	"fmt"
	"sort"
	"strings"

	"gradoop/internal/cypher"
	"gradoop/internal/dataflow"
	"gradoop/internal/embedding"
	"gradoop/internal/epgm"
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

	joinVars   []string
	leftCols   []int
	rightCols  []int
	dropCols   []int
	outputMeta *embedding.Meta
	nullCols   int // right columns appended on a null extension
	nullProps  int // right property columns appended on a null extension
}

// NewOptionalJoinEmbeddings builds the outer join on the variables shared
// between the two inputs; without shared variables every combination is
// tried (a cartesian outer join).
func NewOptionalJoinEmbeddings(left, right Operator, morph Morphism, predicates []cypher.Expr) *OptionalJoinEmbeddings {
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
	outputMeta, dropCols := lm.Merge(rm)
	return &OptionalJoinEmbeddings{
		Left: left, Right: right, Morph: morph, Predicates: predicates,
		joinVars: shared, leftCols: leftCols, rightCols: rightCols,
		dropCols: dropCols, outputMeta: outputMeta,
		nullCols:  rm.Columns() - len(dropCols),
		nullProps: rm.PropColumns(),
	}
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

// padNull extends a left embedding with NULL bindings for every right-only
// column and property.
func (op *OptionalJoinEmbeddings) padNull(l embedding.Embedding) embedding.Embedding {
	e := l
	for i := 0; i < op.nullCols; i++ {
		e = e.AppendNull()
	}
	if op.nullProps > 0 {
		nulls := make([]epgm.PropertyValue, op.nullProps)
		e = e.AppendProps(nulls...)
	}
	return e
}

// Evaluate implements Operator.
func (op *OptionalJoinEmbeddings) Evaluate() *dataflow.Dataset[embedding.Embedding] {
	left := op.Left.Evaluate()
	right := op.Right.Evaluate()
	return traced(op, left.Env(), func() *dataflow.Dataset[embedding.Embedding] {
		return op.evaluate(left, right)
	})
}

func (op *OptionalJoinEmbeddings) evaluate(left, right *dataflow.Dataset[embedding.Embedding]) *dataflow.Dataset[embedding.Embedding] {
	lc, rc := op.leftCols, op.rightCols
	drop := op.dropCols
	meta := op.outputMeta
	lm, rm := op.Left.Meta(), op.Right.Meta()
	morph := op.Morph
	preds := op.Predicates

	lkey := func(e embedding.Embedding) uint64 { return keyOf(e, lc) }
	rkey := func(e embedding.Embedding) uint64 { return keyOf(e, rc) }
	return dataflow.CoGroup(left, right, lkey, rkey,
		func(_ uint64, ls, rs []embedding.Embedding, emit func(embedding.Embedding)) {
			var sc scratch
			for _, l := range ls {
				matched := false
				for _, r := range rs {
					if !sameKeys(l, r, lc, rc) || !sc.validPair(l, lm, r, rm, drop, morph) {
						continue
					}
					merged := l.Merge(r, drop)
					if !passes(merged, meta, preds) {
						continue
					}
					matched = true
					emit(merged)
				}
				if !matched {
					emit(op.padNull(l))
				}
			}
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
