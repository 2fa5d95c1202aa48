package operators

import (
	"fmt"
	"slices"
	"strings"

	"gradoop/internal/dataflow"
	"gradoop/internal/embedding"
)

// This file implements recurring-subquery reuse, the optimization the paper
// names as ongoing work (§6): when a query contains several structurally
// identical sub-patterns — Q5's three (:Person)-[:knows]->(:Person) edges,
// Q6's repeated (:Person)-[:hasInterest]->(:Tag) edges — their leaf
// operators differ only in variable names. The planner evaluates one
// canonical leaf (wrapped in Cached so the dataflow job runs once) and
// derives the others through Alias, which renames the embedding metadata
// without touching the data.

// Cached wraps an operator so that a run evaluates its subtree exactly once;
// later calls in the same run return the same dataset, which the run keeps.
// Embeddings are immutable, so sharing the dataset between consumers is safe.
type Cached struct {
	Inner Operator

	// shared is set once an Alias reads the operator too: only then does the
	// wrapper have a second consumer to save an evaluation for.
	shared bool
}

// NewCached wraps op with single-evaluation semantics.
func NewCached(op Operator) *Cached { return &Cached{Inner: op} }

// Evaluate implements Operator.
func (op *Cached) Evaluate(r *Run) *dataflow.Dataset[embedding.Embedding] {
	k, ok := r.kept[op]
	if !ok {
		k.rows = op.Inner.Evaluate(r)
		r.kept[op] = k
	}
	return k.rows
}

// Meta implements Operator.
func (op *Cached) Meta() *embedding.Meta { return op.Inner.Meta() }

// Selective implements Operator.
func (op *Cached) Selective() bool { return op.Inner.Selective() }

// Children implements Operator.
func (op *Cached) Children() []Operator { return []Operator{op.Inner} }

// Description implements Operator.
func (op *Cached) Description() string { return "Cached" }

// Alias presents a shared sub-result under different variable names: the
// embedding data passes through unchanged while the metadata rebinds each
// column (and property reference) per the rename map.
type Alias struct {
	In     Operator
	Rename map[string]string // old variable -> new variable

	meta *embedding.Meta
}

// NewAlias builds an alias over in. Variables absent from rename keep their
// names. A Cached operator it reads is shared from here on.
func NewAlias(in Operator, rename map[string]string) *Alias {
	if c, ok := in.(*Cached); ok {
		c.shared = true
	}
	inMeta := in.Meta()
	meta := embedding.NewMeta()
	mapped := func(v string) string {
		if n, ok := rename[v]; ok {
			return n
		}
		return v
	}
	for c := 0; c < inMeta.Columns(); c++ {
		meta.AddEntry(mapped(inMeta.Var(c)), inMeta.Kind(c))
	}
	for i := 0; i < inMeta.PropColumns(); i++ {
		ref := inMeta.PropRefAt(i)
		meta.AddProp(mapped(ref.Var), ref.Key)
	}
	return &Alias{In: in, Rename: rename, meta: meta}
}

// Evaluate implements Operator.
func (op *Alias) Evaluate(r *Run) *dataflow.Dataset[embedding.Embedding] { return op.In.Evaluate(r) }

// Meta implements Operator.
func (op *Alias) Meta() *embedding.Meta { return op.meta }

// Selective implements Operator.
func (op *Alias) Selective() bool { return op.In.Selective() }

// Children implements Operator.
func (op *Alias) Children() []Operator { return []Operator{op.In} }

// Description implements Operator.
func (op *Alias) Description() string {
	pairs := make([]string, 0, len(op.Rename))
	for from, to := range op.Rename {
		pairs = append(pairs, from+"->"+to)
	}
	slices.Sort(pairs) // map order is random; a plan must print the same twice
	return fmt.Sprintf("Alias(%s)", strings.Join(pairs, ", "))
}

// Unwrap returns the operator that evaluates for op: op, or the one the
// reuse wrappers around it - Alias and Cached - pass evaluation through to.
// A trace records an operator's actuals, and Observe hands on its output,
// under that one.
func Unwrap(op Operator) Operator {
	for {
		switch o := op.(type) {
		case *Alias:
			op = o.In
		case *Cached:
			op = o.Inner
		default:
			return op
		}
	}
}
