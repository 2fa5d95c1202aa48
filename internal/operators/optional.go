package operators

import (
	"fmt"
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

	joinShape
	rowShape
}

// NewOptionalJoinEmbeddings builds the outer join on the variables shared
// between the two inputs, whose rows carry what live reads; without shared
// variables every combination is tried (a cartesian outer join).
func NewOptionalJoinEmbeddings(left, right Operator, morph Morphism, predicates []cypher.Expr, live embedding.Live) *OptionalJoinEmbeddings {
	return &OptionalJoinEmbeddings{Left: left, Right: right, Morph: morph, Predicates: predicates,
		joinShape: newJoinShape(left, right), rowShape: newRowShape(left.Meta(), right.Meta(), live)}
}

// Meta implements Operator.
func (op *OptionalJoinEmbeddings) Meta() *embedding.Meta { return op.outputMeta }

// Children implements Operator.
func (op *OptionalJoinEmbeddings) Children() []Operator { return []Operator{op.Left, op.Right} }

// Description implements Operator.
func (op *OptionalJoinEmbeddings) Description() string {
	return fmt.Sprintf("OptionalJoinEmbeddings(on=%s, preds=%d, %s/%s%s)",
		strings.Join(op.joinVars, ","), len(op.Predicates), op.Morph.Vertex, op.Morph.Edge, op.dropped)
}

// Evaluate implements Operator.
func (op *OptionalJoinEmbeddings) Evaluate(r *Run) *dataflow.Dataset[embedding.Embedding] {
	left := op.Left.Evaluate(r)
	right := op.Right.Evaluate(r)
	return traced(op, r, func() *dataflow.Dataset[embedding.Embedding] {
		return op.evaluate(left, right, r.resolve(op.Predicates))
	})
}

// evaluate is a hash join built over the optional side and probed with the
// mandatory one: a pair that passes keys, morphism and the group predicates
// is emitted merged, and a probe row none of whose candidates passed is
// emitted once they are through, its right-only columns and properties NULL.
// preds are the group predicates with the run's parameter values; they read
// the pair, so a property only they read need not be written.
func (op *OptionalJoinEmbeddings) evaluate(left, right *dataflow.Dataset[embedding.Embedding], preds []cypher.Expr) *dataflow.Dataset[embedding.Embedding] {
	lc, rc := op.leftCols, op.rightCols
	drop, keep := op.dropCols, op.keep
	lm, rm := op.Left.Meta(), op.Right.Meta()
	morph := op.Morph
	return dataflow.OuterJoinWith(right, left,
		func(e embedding.Embedding) uint64 { return keyOf(e, rc) },
		func(e embedding.Embedding) uint64 { return keyOf(e, lc) },
		func(lane *dataflow.Lane) (pair func(r, l embedding.Embedding, emit func(embedding.Embedding)), after func(l embedding.Embedding, emit func(embedding.Embedding))) {
			sc := scratchOf(lane)
			matched := false
			pair = func(r, l embedding.Embedding, emit func(embedding.Embedding)) {
				if !sameKeys(l, r, lc, rc) || !sc.validPair(l, lm, r, rm, drop, morph) || !passesPair(l, lm, r, rm, preds) {
					return
				}
				matched = true
				emit(sc.slab.Merge(l, r, keep))
			}
			after = func(l embedding.Embedding, emit func(embedding.Embedding)) {
				if !matched {
					emit(sc.slab.PadNull(l, keep, rm.Columns(), rm.PropColumns()))
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
	return passesLookup(embeddingLookup(e, meta), preds)
}

// passesPair is passes on the row merging l with r would give, without
// building it: a property is read from whichever side carries it.
func passesPair(l embedding.Embedding, lm *embedding.Meta, r embedding.Embedding, rm *embedding.Meta, preds []cypher.Expr) bool {
	if len(preds) == 0 {
		return true
	}
	return passesLookup(func(variable, key string) epgm.PropertyValue {
		if col, ok := lm.PropColumn(variable, key); ok {
			return l.Prop(col)
		}
		if col, ok := rm.PropColumn(variable, key); ok {
			return r.Prop(col)
		}
		return epgm.Null
	}, preds)
}

func passesLookup(lookup cypher.Lookup, preds []cypher.Expr) bool {
	for _, p := range preds {
		if !cypher.EvalPredicate(p, lookup) {
			return false
		}
	}
	return true
}
