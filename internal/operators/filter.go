package operators

import (
	"fmt"
	"strings"

	"gradoop/internal/cypher"
	"gradoop/internal/dataflow"
	"gradoop/internal/embedding"
)

// FilterEmbeddings evaluates predicates that span multiple query elements
// (e.g. p1.gender <> p2.gender) on complete embeddings. Predicates are the
// query's, $parameters and all; a run evaluates them with the binding's values.
type FilterEmbeddings struct {
	In         Operator
	Predicates []cypher.Expr
}

// NewFilterEmbeddings wraps in with a selection.
func NewFilterEmbeddings(in Operator, predicates []cypher.Expr) *FilterEmbeddings {
	return &FilterEmbeddings{In: in, Predicates: predicates}
}

// Meta implements Operator.
func (op *FilterEmbeddings) Meta() *embedding.Meta { return op.In.Meta() }

// Selective implements Operator.
func (op *FilterEmbeddings) Selective() bool { return true }

// Children implements Operator.
func (op *FilterEmbeddings) Children() []Operator { return []Operator{op.In} }

// Description implements Operator.
func (op *FilterEmbeddings) Description() string {
	parts := make([]string, len(op.Predicates))
	for i, p := range op.Predicates {
		parts[i] = cypher.ExprString(p)
	}
	return fmt.Sprintf("FilterEmbeddings(%s)", strings.Join(parts, " AND "))
}

// Evaluate implements Operator.
func (op *FilterEmbeddings) Evaluate(r *Run) *dataflow.Dataset[embedding.Embedding] {
	in := op.In.Evaluate(r)
	meta := op.In.Meta()
	preds := r.resolve(op.Predicates)
	return traced(op, r, func() *dataflow.Dataset[embedding.Embedding] {
		return dataflow.Filter(in, func(e embedding.Embedding) bool { return passes(e, meta, preds) })
	})
}
