// Package operators implements the physical query operators of §3.1. Every
// operator consumes and produces dataflow datasets of embeddings and carries
// the embedding metadata describing its output columns. The planner
// assembles operators into a tree, built once per query; Evaluate walks it
// bottom-up in a Run, which supplies the graph and the parameters.
package operators

import (
	"slices"

	"gradoop/internal/dataflow"
	"gradoop/internal/embedding"
	"gradoop/internal/epgm"
)

// Semantics selects homomorphism or isomorphism for one element kind
// (§2.2/§2.3: unlike Neo4j, the caller chooses both independently).
type Semantics int

// Matching semantics. The zero value is neither: the engine reads it as
// homomorphism, and a session takes it for "not set" (the paper's setting),
// so that HOMO/HOMO set explicitly is not mistaken for an unset option.
const (
	Homomorphism Semantics = iota + 1
	Isomorphism
)

// String returns "HOMO" or "ISO".
func (s Semantics) String() string {
	if s == Isomorphism {
		return "ISO"
	}
	return "HOMO"
}

// Morphism bundles the vertex and edge semantics of one query execution.
type Morphism struct {
	Vertex Semantics
	Edge   Semantics
}

// traced wraps the dataflow-facing part of an operator's evaluation in a
// tracing scope: stages launched inside eval are attributed to the
// operator's label (its Description, as the run's Labeler has it), and the
// operator's actual output cardinality and self wall time are recorded under
// the operator itself as the lookup token (EXPLAIN ANALYZE resolves plan
// nodes through it). Children must be evaluated before entering the scope,
// or inside it in a scope of their own, so their stages attribute to
// themselves. Without a collector on the run's environment and an observer
// on the run the wrapper is two nil checks.
func traced(op Operator, r *Run, eval func() *dataflow.Dataset[embedding.Embedding]) *dataflow.Dataset[embedding.Embedding] {
	var out *dataflow.Dataset[embedding.Embedding]
	if c := r.env.Tracer(); c == nil {
		out = eval()
	} else {
		c.InOp(op, r.label(op), func() int64 {
			out = eval()
			return out.Count()
		})
	}
	if r.observe != nil {
		r.observe(op, out)
	}
	return out
}

// Operator is one node of a physical query plan. It is built at plan time
// and read, never written, by every run of the plan.
type Operator interface {
	// Evaluate executes the subtree in r and returns its embeddings.
	Evaluate(r *Run) *dataflow.Dataset[embedding.Embedding]
	// Meta describes the embedding columns Evaluate produces.
	Meta() *embedding.Meta
	// Description names the operator and its parameters for EXPLAIN output,
	// a $parameter by its name.
	Description() string
	// Children returns the operator's inputs.
	Children() []Operator
	// Selective reports whether a predicate restricts the operator's rows
	// somewhere in its subtree: a join over it may expect few of them. It is a
	// bit every constructor sets from its inputs' - planning builds the tree
	// bottom-up - so asking costs a run no walk.
	Selective() bool
}

// scratch is what the row functions of one partition keep, for the length of
// the job, in the partition's lane: the slab their output rows and via lists
// are carved from - a stage carves on where the last one stopped - and buffers
// reused from row to row, which whoever takes them rewrites from empty. The
// lane's holder is the one goroutine that touches it, so nothing in it is
// locked.
type scratch struct {
	slab  embedding.Slab
	ids   []epgm.ID            // the identifiers of a morphism check, a flipped path
	props []epgm.PropertyValue // the projected values of a leaf row
	// via and frames are a walk's path so far and its stack (walker.from).
	via    []epgm.ID
	frames []walkFrame
}

// scratchOf returns the scratch kept in lane, which the first row function to
// run on the lane puts there. It is the one way an operator comes by a slab.
func scratchOf(lane *dataflow.Lane) *scratch {
	sc, ok := lane.State.(*scratch)
	if !ok {
		sc = new(scratch)
		lane.State = sc
	}
	return sc
}

// appendBound appends to dst the data vertices (kind VertexEntry) or data
// edges (kind EdgeEntry) an embedding binds, read in place: every column of
// that kind, plus from every path column its interior vertices (the odd
// positions of the alternating edge/vertex id list) or its edges (the even
// ones). Null columns bind nothing, and the columns listed in skip (sorted
// ascending) are left out.
func appendBound(dst []epgm.ID, e embedding.Embedding, meta *embedding.Meta, skip []int, kind embedding.EntryKind) []epgm.ID {
	first := 1
	if kind == embedding.EdgeEntry {
		first = 0
	}
	for c := 0; c < meta.Columns(); c++ {
		if len(skip) > 0 && skip[0] == c {
			skip = skip[1:]
			continue
		}
		if e.IsNullAt(c) {
			continue
		}
		switch meta.Kind(c) {
		case kind:
			dst = append(dst, e.ID(c))
		case embedding.PathEntry:
			for j, n := first, e.PathLen(c); j < n; j += 2 {
				dst = append(dst, e.PathID(c, j))
			}
		}
	}
	return dst
}

// allDistinct reports whether ids are pairwise distinct. It sorts ids,
// which is scratch.
func allDistinct(ids []epgm.ID) bool {
	slices.Sort(ids)
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			return false
		}
	}
	return true
}

// validPair checks the configured semantics on the row that merging l with
// r (minus r's drop columns) would give, without building it: isomorphic
// vertices require all bound vertex ids to be pairwise distinct, isomorphic
// edges likewise for edge ids, homomorphism imposes nothing. r's drop
// columns repeat bindings l already has and stay out of the comparison. A
// single row is the pair of itself and the empty embedding. Rows a join
// writes leave out columns, but never one the check still needs: a column
// stays while an element not bound yet may be the one it binds (DESIGN
// decision 35), so the ids the inputs carry decide as all of them would.
func (sc *scratch) validPair(l embedding.Embedding, lm *embedding.Meta, r embedding.Embedding, rm *embedding.Meta, drop []int, m Morphism) bool {
	return (m.Vertex != Isomorphism || sc.distinct(l, lm, r, rm, drop, embedding.VertexEntry)) &&
		(m.Edge != Isomorphism || sc.distinct(l, lm, r, rm, drop, embedding.EdgeEntry))
}

// distinct reports whether the data vertices (or data edges) that l and r
// together bind are pairwise distinct. rm is nil when there is no r.
func (sc *scratch) distinct(l embedding.Embedding, lm *embedding.Meta, r embedding.Embedding, rm *embedding.Meta, drop []int, kind embedding.EntryKind) bool {
	sc.ids = appendBound(sc.ids[:0], l, lm, nil, kind)
	if rm != nil {
		sc.ids = appendBound(sc.ids, r, rm, drop, kind)
	}
	return allDistinct(sc.ids)
}

// ValidMorphism checks an embedding against the configured semantics:
// isomorphic vertices require all bound vertex ids to be pairwise distinct,
// isomorphic edges likewise for edge ids. Homomorphism imposes nothing.
func ValidMorphism(e embedding.Embedding, meta *embedding.Meta, m Morphism) bool {
	// builds no row: the identifier buffer is all it uses
	return new(scratch).validPair(e, meta, embedding.Embedding{}, nil, nil, m)
}

// bindsEdge reports whether the embedding binds the data edge id, in an
// edge column or along a path.
func bindsEdge(e embedding.Embedding, meta *embedding.Meta, id epgm.ID) bool {
	for c := 0; c < meta.Columns(); c++ {
		if e.IsNullAt(c) {
			continue
		}
		switch meta.Kind(c) {
		case embedding.EdgeEntry:
			if e.ID(c) == id {
				return true
			}
		case embedding.PathEntry:
			for j, n := 0, e.PathLen(c); j < n; j += 2 {
				if e.PathID(c, j) == id {
					return true
				}
			}
		}
	}
	return false
}

// embeddingLookup builds a cypher predicate Lookup over an embedding's
// property columns.
func embeddingLookup(e embedding.Embedding, meta *embedding.Meta) func(variable, key string) epgm.PropertyValue {
	return func(variable, key string) epgm.PropertyValue {
		if col, ok := meta.PropColumn(variable, key); ok {
			return e.Prop(col)
		}
		return epgm.Null
	}
}
