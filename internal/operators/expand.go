package operators

import (
	"fmt"
	"slices"

	"gradoop/internal/cypher"
	"gradoop/internal/dataflow"
	"gradoop/internal/embedding"
	"gradoop/internal/epgm"
)

// ExpandEmbeddings evaluates a variable length path expression (§3.1): a
// bulk iteration that grows paths one hop per iteration by joining the
// working set with the edge set - the iteration's static path, shuffled and
// hashed once and probed per hop - keeps only paths satisfying the morphism
// semantics, and unions iterations ≥ the lower bound into the result. The
// resulting embeddings carry the path as a PATH column (the "via" entries of
// Table 2b) plus, when the far endpoint was not already bound, a new vertex
// column for it. The edges it reads are the run's: the access's datasets for
// the query edge's types, concatenated.
type ExpandEmbeddings struct {
	In    Operator
	Edge  *cypher.QueryEdge
	Morph Morphism
	// Reverse expands against edge direction: the input binds the query
	// edge's target and paths are grown towards its source.
	Reverse bool

	bindTarget bool
	startCol   int
	endVar     string
	meta       *embedding.Meta
	selective  bool
}

// NewExpandEmbeddings builds an expansion of in along qe. The input must
// bind the query edge's source (forward) or target (reverse); if it binds
// both, the expansion closes a cycle and checks the far endpoint instead of
// binding a new column.
func NewExpandEmbeddings(in Operator, qe *cypher.QueryEdge, morph Morphism, reverse bool) (*ExpandEmbeddings, error) {
	inMeta := in.Meta()
	startVar, endVar := qe.Source, qe.Target
	if reverse {
		startVar, endVar = qe.Target, qe.Source
	}
	startCol, ok := inMeta.Column(startVar)
	if !ok {
		return nil, fmt.Errorf("operators: expand input does not bind %q", startVar)
	}
	bindTarget := inMeta.HasVar(endVar)
	meta := inMeta.Clone()
	meta.AddEntry(qe.Var, embedding.PathEntry)
	if !bindTarget {
		meta.AddEntry(endVar, embedding.VertexEntry)
	}
	return &ExpandEmbeddings{
		In: in, Edge: qe, Morph: morph, Reverse: reverse,
		bindTarget: bindTarget, startCol: startCol, endVar: endVar, meta: meta,
		selective: in.Selective() || len(qe.Predicates) > 0,
	}, nil
}

// Meta implements Operator.
func (op *ExpandEmbeddings) Meta() *embedding.Meta { return op.meta }

// Selective implements Operator.
func (op *ExpandEmbeddings) Selective() bool { return op.selective }

// Children implements Operator.
func (op *ExpandEmbeddings) Children() []Operator { return []Operator{op.In} }

// Description implements Operator.
func (op *ExpandEmbeddings) Description() string {
	dir := "forward"
	if op.Reverse {
		dir = "reverse"
	}
	return fmt.Sprintf("ExpandEmbeddings(%s%s*%d..%d, %s, bindTarget=%v)",
		op.Edge.Var, labelSuffix(op.Edge.Types), op.Edge.MinHops, op.Edge.MaxHops, dir, op.bindTarget)
}

// edgeTriple is the slim edge representation joined against the working set
// each iteration: source, edge and target identifiers only.
type edgeTriple struct {
	S, E, T epgm.ID
}

// SizeBytes implements dataflow.Sized.
func (edgeTriple) SizeBytes() int { return 24 }

// pathState is one partial path of the bulk iteration's working set.
type pathState struct {
	base embedding.Embedding
	via  []epgm.ID // alternating edge and interior-vertex ids (Table 2b)
	end  epgm.ID
}

// SizeBytes implements dataflow.Sized.
func (s pathState) SizeBytes() int { return s.base.SizeBytes() + 8*len(s.via) + 8 }

// Evaluate implements Operator.
func (op *ExpandEmbeddings) Evaluate(r *Run) *dataflow.Dataset[embedding.Embedding] {
	in := op.In.Evaluate(r)
	return traced(op, r, func() *dataflow.Dataset[embedding.Embedding] {
		return op.evaluate(r, in)
	})
}

func (op *ExpandEmbeddings) evaluate(r *Run, in *dataflow.Dataset[embedding.Embedding]) *dataflow.Dataset[embedding.Embedding] {
	qe := r.edge(op.Edge)

	// Select the relevant edges. They are loop-invariant: shuffled and hashed
	// once, here, and only probed by every hop.
	selectTriple := func(de epgm.Edge, emit func(edgeTriple)) {
		if !cypher.MatchesLabel(de.Label, qe.Types) {
			return
		}
		if !cypher.EvalElement(qe.Predicates, qe.Var, de.Properties) {
			return
		}
		s, t := de.Source, de.Target
		if op.Reverse {
			s, t = t, s
		}
		emit(edgeTriple{S: s, E: de.ID, T: t})
		if qe.Undirected {
			emit(edgeTriple{S: t, E: de.ID, T: s})
		}
	}
	triples := dataflow.FlatMapWith(r.access.Edges(qe.Types).Union(), func(*dataflow.Lane) func(epgm.Edge, func(edgeTriple)) { return selectTriple },
		leafFanOut(len(qe.Predicates), false, qe.Undirected))

	build := dataflow.Build(triples, func(t edgeTriple) uint64 { return uint64(t.S) })

	startCol := op.startCol
	working := dataflow.Map(in, func(e embedding.Embedding) pathState {
		start := e.ID(startCol)
		return pathState{base: e, end: start}
	})

	var zeroHops *dataflow.Dataset[embedding.Embedding]
	if qe.MinHops == 0 {
		zeroHops = op.finalize(working)
	}
	return dataflow.BulkIteration(working, zeroHops, qe.MaxHops,
		func(hop int, working *dataflow.Dataset[pathState]) (next *dataflow.Dataset[pathState], results *dataflow.Dataset[embedding.Embedding]) {
			next = dataflow.Probe(build, working,
				func(s pathState) uint64 { return uint64(s.end) },
				func(lane *dataflow.Lane) func(edgeTriple, pathState, func(pathState)) {
					// Via lists are written once, here, and clipped to their length,
					// so extending a path copies it and never grows in place.
					slab := &scratchOf(lane).slab
					return func(t edgeTriple, s pathState, emit func(pathState)) {
						if t.S != s.end || !op.hopAllowed(s, t) {
							return
						}
						via := slab.IDs(len(s.via) + 1 + min(len(s.via), 1))
						n := copy(via, s.via)
						if n > 0 {
							via[n] = s.end
						}
						via[len(via)-1] = t.E
						emit(pathState{base: s.base, via: via, end: t.T})
					}
				})
			if hop >= qe.MinHops {
				results = op.finalize(next)
			}
			return next, results
		})
}

// hopAllowed prunes extensions that can never satisfy the morphism
// semantics: under edge isomorphism the new edge must be fresh; under
// vertex isomorphism a revisited vertex can only ever produce duplicate
// bindings, so the path is dead.
func (op *ExpandEmbeddings) hopAllowed(s pathState, t edgeTriple) bool {
	inMeta := op.In.Meta()
	if op.Morph.Edge == Isomorphism {
		for i := 0; i < len(s.via); i += 2 {
			if s.via[i] == t.E {
				return false
			}
		}
		if bindsEdge(s.base, inMeta, t.E) {
			return false
		}
	}
	if op.Morph.Vertex == Isomorphism {
		// t.T will become either an interior vertex or the far endpoint; in
		// both cases a duplicate with the path's interior or its start is
		// fatal. Duplicates with other base columns are left to the final
		// morphism check because a bound far endpoint legitimately equals
		// the base's column for that variable.
		if t.T == s.base.ID(op.startCol) {
			return false
		}
		for i := 1; i < len(s.via); i += 2 {
			if s.via[i] == t.T {
				return false
			}
		}
	}
	return true
}

// finalize turns path states of an admissible length into result embeddings
// and applies the full morphism check.
func (op *ExpandEmbeddings) finalize(states *dataflow.Dataset[pathState]) *dataflow.Dataset[embedding.Embedding] {
	meta := op.meta
	morph := op.Morph
	bindTarget := op.bindTarget
	var endCol int
	if bindTarget {
		endCol, _ = op.In.Meta().Column(op.endVar)
	}
	reverse := op.Reverse
	// An open far end keeps every state the morphism check passes - nearly
	// all, hopAllowed pruned the rest; a closing expansion keeps the few
	// whose path ends on the bound vertex.
	fanOut := 1
	if bindTarget {
		fanOut = 0
	}
	return dataflow.FlatMapWith(states, func(lane *dataflow.Lane) func(pathState, func(embedding.Embedding)) {
		sc := scratchOf(lane)
		return func(s pathState, emit func(embedding.Embedding)) {
			if bindTarget && s.base.ID(endCol) != s.end {
				return
			}
			via := s.via
			if reverse && len(via) > 1 {
				// A reverse expansion walked the path from its target; the via
				// entries are stored source-to-target (Table 2b), so flip them.
				sc.ids = append(sc.ids[:0], via...)
				slices.Reverse(sc.ids)
				via = sc.ids
			}
			// The path and the far endpoint go on in one write.
			e := sc.slab.AppendPath(s.base, via, s.end, !bindTarget)
			if sc.valid(e, meta, morph) {
				emit(e)
			}
		}
	}, fanOut)
}
