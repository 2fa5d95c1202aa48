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
	In     *dataflow.Dataset[epgm.Vertex]
	Vertex *cypher.QueryVertex

	meta *embedding.Meta
}

// NewFilterAndProjectVertices builds the leaf and its output metadata.
func NewFilterAndProjectVertices(in *dataflow.Dataset[epgm.Vertex], qv *cypher.QueryVertex) *FilterAndProjectVertices {
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

// Description implements Operator.
func (op *FilterAndProjectVertices) Description() string {
	return fmt.Sprintf("FilterAndProjectVertices(%s%s, preds=%d)",
		op.Vertex.Var, labelSuffix(op.Vertex.Labels), len(op.Vertex.Predicates))
}

// Evaluate implements Operator.
func (op *FilterAndProjectVertices) Evaluate() *dataflow.Dataset[embedding.Embedding] {
	return traced(op, op.In.Env(), op.evaluate)
}

func (op *FilterAndProjectVertices) evaluate() *dataflow.Dataset[embedding.Embedding] {
	qv := op.Vertex
	return dataflow.FlatMapWith(op.In, func() func(epgm.Vertex, func(embedding.Embedding)) {
		var sc scratch
		return func(v epgm.Vertex, emit func(embedding.Embedding)) {
			if !cypher.MatchesLabel(v.Label, qv.Labels) {
				return
			}
			if !cypher.EvalElement(qv.Predicates, qv.Var, v.Properties) {
				return
			}
			ids := [1]epgm.ID{v.ID}
			emit(sc.slab.Row(ids[:], sc.project(v.Properties, qv.Projection)))
		}
	}, leafFanOut(len(qv.Predicates), false, false))
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
	In   *dataflow.Dataset[epgm.Edge]
	Edge *cypher.QueryEdge

	meta *embedding.Meta
	loop bool
}

// NewFilterAndProjectEdges builds the leaf and its output metadata.
func NewFilterAndProjectEdges(in *dataflow.Dataset[epgm.Edge], qe *cypher.QueryEdge) *FilterAndProjectEdges {
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
	return traced(op, op.In.Env(), op.evaluate)
}

func (op *FilterAndProjectEdges) evaluate() *dataflow.Dataset[embedding.Embedding] {
	qe := op.Edge
	loop := op.loop
	return dataflow.FlatMapWith(op.In, func() func(epgm.Edge, func(embedding.Embedding)) {
		var sc scratch
		return func(de epgm.Edge, emit func(embedding.Embedding)) {
			if !cypher.MatchesLabel(de.Label, qe.Types) {
				return
			}
			if !cypher.EvalElement(qe.Predicates, qe.Var, de.Properties) {
				return
			}
			if loop && de.Source != de.Target {
				return
			}
			props := sc.project(de.Properties, qe.Projection)
			ids := [3]epgm.ID{de.Source, de.ID, de.Target}
			cols := ids[:]
			if loop {
				cols = ids[:2]
			}
			emit(sc.slab.Row(cols, props))
			if qe.Undirected && de.Source != de.Target {
				ids[0], ids[2] = de.Target, de.Source
				emit(sc.slab.Row(cols, props))
			}
		}
	}, leafFanOut(len(qe.Predicates), loop, qe.Undirected))
}

func labelSuffix(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	return ":" + strings.Join(labels, "|")
}
