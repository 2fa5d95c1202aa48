package operators

import (
	"fmt"
	"slices"

	"gradoop/internal/cypher"
	"gradoop/internal/dataflow"
	"gradoop/internal/embedding"
	"gradoop/internal/epgm"
)

// ExpandEmbeddings evaluates a variable length path expression (§3.1). Over a
// plain graph it is the paper's bulk iteration, which grows paths one hop per
// iteration by joining the working set with the edge set - the iteration's
// static path, shuffled and hashed once and probed per hop - keeps only paths
// satisfying the morphism semantics, and unions iterations ≥ the lower bound
// into the result; the edges it reads are the run's: the access's datasets
// for the query edge's types, concatenated. Over a pinned store it is one
// partition-local stage that walks the store's adjacency depth first from
// each input row (walk, DESIGN decision 41). Which one runs is a fact of the
// access, not a setting. The resulting embeddings carry the path as a PATH
// column (the "via" entries of Table 2b) plus, when the far endpoint was not
// already bound, a new vertex column for it.
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
	endCol     int // the far end's column in the input, if bindTarget
	selective  bool
	// rowShape is that of the input's rows joined with the path and, unless
	// bindTarget, the far endpoint: the expansion's right row.
	rowShape
}

// NewExpandEmbeddings builds an expansion of in along qe whose rows carry
// what live reads. The input must bind the query edge's source (forward) or
// target (reverse); if it binds both, the expansion closes a cycle and checks
// the far endpoint instead of binding a new column.
func NewExpandEmbeddings(in Operator, qe *cypher.QueryEdge, morph Morphism, reverse bool, live embedding.Live) (*ExpandEmbeddings, error) {
	inMeta := in.Meta()
	startVar, endVar := qe.Source, qe.Target
	if reverse {
		startVar, endVar = qe.Target, qe.Source
	}
	startCol, ok := inMeta.Column(startVar)
	if !ok {
		return nil, fmt.Errorf("operators: expand input does not bind %q", startVar)
	}
	endCol, bindTarget := inMeta.Column(endVar)
	path := embedding.NewMeta()
	path.AddEntry(qe.Var, embedding.PathEntry)
	if !bindTarget {
		path.AddEntry(endVar, embedding.VertexEntry)
	}
	return &ExpandEmbeddings{
		In: in, Edge: qe, Morph: morph, Reverse: reverse,
		bindTarget: bindTarget, startCol: startCol, endVar: endVar, endCol: endCol,
		selective: in.Selective() || len(qe.Predicates) > 0,
		rowShape:  newRowShape(inMeta, path, live),
	}, nil
}

// Meta implements Operator.
func (op *ExpandEmbeddings) Meta() *embedding.Meta { return op.outputMeta }

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
	return fmt.Sprintf("ExpandEmbeddings(%s%s*%d..%d, %s, bindTarget=%v%s)",
		op.Edge.Var, labelSuffix(op.Edge.Types), op.Edge.MinHops, op.Edge.MaxHops, dir, op.bindTarget, op.dropped)
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
	scans, seeds, ends := r.route(op)
	in := r.input(op.In, scans[0])
	return traced(op, r, func() *dataflow.Dataset[embedding.Embedding] {
		return op.evaluate(r, in, seeds, ends)
	})
}

// evaluate is the expansion of in, the input's rows, in r, which tests the
// key test seeds per input row and ends at its paths' far ends.
func (op *ExpandEmbeddings) evaluate(r *Run, in *dataflow.Dataset[embedding.Embedding], seeds, ends *keyTest) *dataflow.Dataset[embedding.Embedding] {
	qe := r.edge(op.Edge)
	defer noteDropped(r, op, seeds, ends)
	if store := r.access.Store(); store != nil {
		return op.walk(r, qe, store, in, seeds, ends)
	}

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
	triples := dataflow.FlatMap(r.access.Edges(qe.Types).Union(), selectTriple)

	build := dataflow.Build(triples, func(t edgeTriple) uint64 { return uint64(t.S) })

	// An input row whose key is not in a seed set starts no path; without
	// one, every row does.
	startCol := op.startCol
	working := dataflow.FlatMap(in, func(e embedding.Embedding, emit func(pathState)) {
		if seeds.keeps(e, e) {
			emit(pathState{base: e, end: e.ID(startCol)})
		}
	})

	finalize := op.finalizer(ends)
	var zeroHops *dataflow.Dataset[embedding.Embedding]
	if qe.MinHops == 0 {
		zeroHops = finalize(working)
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
				results = finalize(next)
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

// finalizer returns what turns path states of an admissible length into
// result embeddings, testing the end sets of ends at their far ends (finish).
func (op *ExpandEmbeddings) finalizer(ends *keyTest) func(*dataflow.Dataset[pathState]) *dataflow.Dataset[embedding.Embedding] {
	newF := func(lane *dataflow.Lane) func(pathState, func(embedding.Embedding)) {
		sc := scratchOf(lane)
		return func(s pathState, emit func(embedding.Embedding)) { op.finish(sc, s, ends, emit) }
	}
	return func(states *dataflow.Dataset[pathState]) *dataflow.Dataset[embedding.Embedding] {
		return dataflow.FlatMapWith(states, newF)
	}
}

// finish writes the row of a path of an admissible length, if it has one. It
// drops a path off the bound vertex of a closing expansion and one whose far
// end the end sets of ends drop, and applies the full morphism check - to
// the state, before a row is written, since the row carries only what the
// rest of the query reads. The via list is copied into the row.
func (op *ExpandEmbeddings) finish(sc *scratch, s pathState, ends *keyTest, emit func(embedding.Embedding)) {
	if op.bindTarget && s.base.ID(op.endCol) != s.end || !ends.keepsIDs([3]epgm.ID{s.end}) {
		return
	}
	if !sc.validState(s, op.In.Meta(), !op.bindTarget, op.Morph) {
		return
	}
	via := s.via
	if op.Reverse && len(via) > 1 {
		// A reverse expansion walked the path from its target; the via
		// entries are stored source-to-target (Table 2b), so flip them.
		sc.ids = append(sc.ids[:0], via...)
		slices.Reverse(sc.ids)
		via = sc.ids
	}
	// The path and the far endpoint go on in one write.
	emit(sc.slab.AppendPath(s.base, op.keep, via, s.end, !op.bindTarget))
}

// validState is valid on the row a path state makes: the base row's
// bindings, the path's edges and interior vertices and, when the expansion
// binds it, the far endpoint.
func (sc *scratch) validState(s pathState, inMeta *embedding.Meta, newEnd bool, m Morphism) bool {
	if m.Vertex == Isomorphism {
		sc.ids = appendBound(sc.ids[:0], s.base, inMeta, nil, embedding.VertexEntry)
		for j := 1; j < len(s.via); j += 2 {
			sc.ids = append(sc.ids, s.via[j])
		}
		if newEnd {
			sc.ids = append(sc.ids, s.end)
		}
		if !allDistinct(sc.ids) {
			return false
		}
	}
	if m.Edge == Isomorphism {
		sc.ids = appendBound(sc.ids[:0], s.base, inMeta, nil, embedding.EdgeEntry)
		for j := 0; j < len(s.via); j += 2 {
			sc.ids = append(sc.ids, s.via[j])
		}
		if !allDistinct(sc.ids) {
			return false
		}
	}
	return true
}
