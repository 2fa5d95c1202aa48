package operators

import (
	"fmt"
	"strings"

	"gradoop/internal/cypher"
	"gradoop/internal/dataflow"
	"gradoop/internal/embedding"
)

// FilterEmbeddings evaluates predicates that span multiple query elements
// (e.g. p1.gender <> p2.gender) on complete embeddings.
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
func (op *FilterEmbeddings) Evaluate() *dataflow.Dataset[embedding.Embedding] {
	in := op.In.Evaluate()
	meta := op.In.Meta()
	preds := op.Predicates
	return traced(op, in.Env(), func() *dataflow.Dataset[embedding.Embedding] {
		return dataflow.Filter(in, func(e embedding.Embedding) bool {
			lookup := embeddingLookup(e, meta)
			for _, p := range preds {
				if !cypher.EvalPredicate(p, lookup) {
					return false
				}
			}
			return true
		})
	})
}

// ProjectEmbeddings removes columns that are no longer needed downstream:
// it keeps the listed variables' id columns and the listed property
// references, shrinking the bytes shuffled by later operators.
type ProjectEmbeddings struct {
	In        Operator
	KeepVars  []string
	KeepProps []embedding.PropRef

	outputMeta *embedding.Meta
	idCols     []int
	propCols   []int
	selective  bool
}

// NewProjectEmbeddings builds a projection. Unknown variables or property
// references are ignored.
func NewProjectEmbeddings(in Operator, keepVars []string, keepProps []embedding.PropRef) *ProjectEmbeddings {
	inMeta := in.Meta()
	outputMeta := embedding.NewMeta()
	var idCols, propCols []int
	for _, v := range keepVars {
		if c, ok := inMeta.Column(v); ok {
			outputMeta.AddEntry(v, inMeta.Kind(c))
			idCols = append(idCols, c)
		}
	}
	for _, ref := range keepProps {
		if c, ok := inMeta.PropColumn(ref.Var, ref.Key); ok {
			outputMeta.AddProp(ref.Var, ref.Key)
			propCols = append(propCols, c)
		}
	}
	return &ProjectEmbeddings{
		In: in, KeepVars: keepVars, KeepProps: keepProps,
		outputMeta: outputMeta, idCols: idCols, propCols: propCols, selective: in.Selective(),
	}
}

// Meta implements Operator.
func (op *ProjectEmbeddings) Meta() *embedding.Meta { return op.outputMeta }

// Selective implements Operator.
func (op *ProjectEmbeddings) Selective() bool { return op.selective }

// Children implements Operator.
func (op *ProjectEmbeddings) Children() []Operator { return []Operator{op.In} }

// Description implements Operator.
func (op *ProjectEmbeddings) Description() string {
	return fmt.Sprintf("ProjectEmbeddings(keep=%s)", strings.Join(op.KeepVars, ","))
}

// Evaluate implements Operator.
func (op *ProjectEmbeddings) Evaluate() *dataflow.Dataset[embedding.Embedding] {
	in := op.In.Evaluate()
	idCols, propCols := op.idCols, op.propCols
	return traced(op, in.Env(), func() *dataflow.Dataset[embedding.Embedding] {
		return dataflow.FlatMapWith(in, func(lane *dataflow.Lane) func(embedding.Embedding, func(embedding.Embedding)) {
			slab := &scratchOf(lane).slab
			return func(e embedding.Embedding, emit func(embedding.Embedding)) {
				emit(slab.Project(e, idCols, propCols))
			}
		}, 1)
	})
}
