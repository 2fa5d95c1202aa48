package operators

import (
	"fmt"
	"strings"

	"gradoop/internal/cypher"
	"gradoop/internal/dataflow"
	"gradoop/internal/embedding"
	"gradoop/internal/epgm"
)

// FilterAndProjectVertices is the leaf operator for a query vertex: in one
// FlatMap it selects vertices satisfying the element-centric predicates,
// projects the property keys required downstream and transforms each
// survivor into a single-column embedding (§3.1's fused
// Select→Project→Transform).
type FilterAndProjectVertices struct {
	In     epgm.Scan[epgm.Vertex]
	Vertex *cypher.QueryVertex

	meta *embedding.Meta
}

// NewFilterAndProjectVertices builds the leaf and its output metadata.
func NewFilterAndProjectVertices(in epgm.Scan[epgm.Vertex], qv *cypher.QueryVertex) *FilterAndProjectVertices {
	meta := embedding.NewMeta()
	meta.AddEntry(qv.Var, embedding.VertexEntry)
	for _, key := range qv.Projection {
		meta.AddProp(qv.Var, key)
	}
	return &FilterAndProjectVertices{In: in, Vertex: qv, meta: meta}
}

// Meta implements Operator.
func (op *FilterAndProjectVertices) Meta() *embedding.Meta { return op.meta }

// Children implements Operator.
func (op *FilterAndProjectVertices) Children() []Operator { return nil }

// Selective implements Operator.
func (op *FilterAndProjectVertices) Selective() bool { return len(op.Vertex.Predicates) > 0 }

// Description implements Operator.
func (op *FilterAndProjectVertices) Description() string {
	return fmt.Sprintf("FilterAndProjectVertices(%s%s, preds=%d)",
		op.Vertex.Var, labelSuffix(op.Vertex.Labels), len(op.Vertex.Predicates))
}

// Evaluate implements Operator.
func (op *FilterAndProjectVertices) Evaluate() *dataflow.Dataset[embedding.Embedding] {
	return traced(op, op.In.Parts[0].Env(), op.evaluate)
}

func (op *FilterAndProjectVertices) evaluate() *dataflow.Dataset[embedding.Embedding] {
	fanOut := leafFanOut(len(op.Vertex.Predicates), false, false)
	return perPart(op.In, func(part *dataflow.Dataset[epgm.Vertex]) *dataflow.Dataset[embedding.Embedding] {
		return dataflow.FlatMapWith(part, func(lane *dataflow.Lane) func(epgm.Vertex, func(embedding.Embedding)) {
			sc := scratchOf(lane)
			return func(v epgm.Vertex, emit func(embedding.Embedding)) {
				if row, ok := op.row(sc, &v); ok {
					emit(row)
				}
			}
		}, fanOut)
	})
}

// row is the leaf's Select-Project-Transform of one data vertex: its row, if
// it has one. The scan calls it on every vertex, a join that probes the leaf
// where it lies (JoinEmbeddings) on those whose id it is looking for.
func (op *FilterAndProjectVertices) row(sc *scratch, v *epgm.Vertex) (embedding.Embedding, bool) {
	qv := op.Vertex
	if !cypher.MatchesLabel(v.Label, qv.Labels) || !cypher.EvalElement(qv.Predicates, qv.Var, v.Properties) {
		return embedding.Embedding{}, false
	}
	ids := [1]epgm.ID{v.ID}
	return sc.slab.Row(ids[:], sc.project(v.Properties, qv.Projection)), true
}

// perPart runs eval on every part of a scan and concatenates what it returns
// partition by partition, parts in order - the rows a scan of the parts'
// concatenation would have made, in that order, with only their one-word
// headers copied. A scan of one part has nothing to concatenate.
func perPart[T any](in epgm.Scan[T], eval func(*dataflow.Dataset[T]) *dataflow.Dataset[embedding.Embedding]) *dataflow.Dataset[embedding.Embedding] {
	if len(in.Parts) == 1 {
		return eval(in.Parts[0])
	}
	rows := make([]*dataflow.Dataset[embedding.Embedding], len(in.Parts))
	for i, part := range in.Parts {
		rows[i] = eval(part)
	}
	return dataflow.UnionAll(rows...)
}

// leafFanOut is what a leaf knows of its rows per scanned element before it
// has scanned any: without predicates every element of its label - which is
// all its input holds when the scan is served from the label index - makes
// one row, two for an undirected edge. A predicate or a loop edge keeps few;
// those leaves say nothing and their output grows as emitted.
func leafFanOut(predicates int, loop, undirected bool) int {
	switch {
	case predicates > 0 || loop:
		return 0
	case undirected:
		return 2
	}
	return 1
}

// project collects the values of the projected keys into the attempt's
// reused value buffer.
func (sc *scratch) project(props epgm.Properties, keys []string) []epgm.PropertyValue {
	sc.props = sc.props[:0]
	for _, key := range keys {
		sc.props = append(sc.props, props.Get(key))
	}
	return sc.props
}

// FilterAndProjectEdges is the leaf operator for a simple (1-hop) query
// edge. It emits three-column embeddings [source, edge, target]; undirected
// query edges additionally emit the reversed orientation, and loop query
// edges ((a)-[e]->(a)) emit two columns after checking source = target.
type FilterAndProjectEdges struct {
	In   epgm.Scan[epgm.Edge]
	Edge *cypher.QueryEdge

	meta *embedding.Meta
	loop bool
}

// NewFilterAndProjectEdges builds the leaf and its output metadata.
func NewFilterAndProjectEdges(in epgm.Scan[epgm.Edge], qe *cypher.QueryEdge) *FilterAndProjectEdges {
	meta := embedding.NewMeta()
	loop := qe.Source == qe.Target
	meta.AddEntry(qe.Source, embedding.VertexEntry)
	meta.AddEntry(qe.Var, embedding.EdgeEntry)
	if !loop {
		meta.AddEntry(qe.Target, embedding.VertexEntry)
	}
	for _, key := range qe.Projection {
		meta.AddProp(qe.Var, key)
	}
	return &FilterAndProjectEdges{In: in, Edge: qe, meta: meta, loop: loop}
}

// Meta implements Operator.
func (op *FilterAndProjectEdges) Meta() *embedding.Meta { return op.meta }

// Children implements Operator.
func (op *FilterAndProjectEdges) Children() []Operator { return nil }

// Selective implements Operator.
func (op *FilterAndProjectEdges) Selective() bool { return len(op.Edge.Predicates) > 0 }

// Description implements Operator.
func (op *FilterAndProjectEdges) Description() string {
	dir := "->"
	if op.Edge.Undirected {
		dir = "--"
	}
	return fmt.Sprintf("FilterAndProjectEdges((%s)-[%s%s]%s(%s), preds=%d)",
		op.Edge.Source, op.Edge.Var, labelSuffix(op.Edge.Types), dir, op.Edge.Target, len(op.Edge.Predicates))
}

// Evaluate implements Operator.
func (op *FilterAndProjectEdges) Evaluate() *dataflow.Dataset[embedding.Embedding] {
	return traced(op, op.In.Parts[0].Env(), op.evaluate)
}

func (op *FilterAndProjectEdges) evaluate() *dataflow.Dataset[embedding.Embedding] {
	qe := op.Edge
	fanOut := leafFanOut(len(qe.Predicates), op.loop, qe.Undirected)
	return perPart(op.In, func(part *dataflow.Dataset[epgm.Edge]) *dataflow.Dataset[embedding.Embedding] {
		return dataflow.FlatMapWith(part, func(lane *dataflow.Lane) func(epgm.Edge, func(embedding.Embedding)) {
			sc := scratchOf(lane)
			return func(de epgm.Edge, emit func(embedding.Embedding)) {
				row, ok := op.row(sc, &de, false)
				if !ok {
					return
				}
				emit(row)
				if qe.Undirected && de.Source != de.Target {
					row, _ = op.row(sc, &de, true)
					emit(row)
				}
			}
		}, fanOut)
	})
}

// row is the leaf's Select-Project-Transform of one data edge: its row, if
// it has one. reversed asks for the second row an undirected query edge makes
// of a data edge that is no loop, read against its direction; it is asked of
// an edge that has just made its first, and the tests are not repeated. The
// scan calls row on every edge, a join that probes the leaf where it lies on
// those whose endpoints it is looking for.
func (op *FilterAndProjectEdges) row(sc *scratch, de *epgm.Edge, reversed bool) (embedding.Embedding, bool) {
	qe := op.Edge
	ids := [3]epgm.ID{de.Source, de.ID, de.Target}
	if reversed {
		ids[0], ids[2] = ids[2], ids[0]
	} else if !cypher.MatchesLabel(de.Label, qe.Types) || !cypher.EvalElement(qe.Predicates, qe.Var, de.Properties) ||
		op.loop && de.Source != de.Target {
		return embedding.Embedding{}, false
	}
	cols := ids[:]
	if op.loop {
		cols = ids[:2]
	}
	return sc.slab.Row(cols, sc.project(de.Properties, qe.Projection)), true
}

func labelSuffix(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	return ":" + strings.Join(labels, "|")
}
