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
// Select→Project→Transform). What it scans is the run's: the access's
// datasets for the vertex's labels, and its predicates are the binding's.
type FilterAndProjectVertices struct {
	Vertex *cypher.QueryVertex

	meta *embedding.Meta
	keys []string // the property keys its rows carry
}

// NewFilterAndProjectVertices builds the leaf and its output metadata: its
// rows carry every key of the vertex read after the leaf (QueryVertex.Keys).
func NewFilterAndProjectVertices(qv *cypher.QueryVertex) *FilterAndProjectVertices {
	return NewVertexLeaf(qv, qv.Keys())
}

// NewVertexLeaf is NewFilterAndProjectVertices for a leaf whose rows carry
// keys of the vertex's properties, sorted: a plan whose result reads the
// others from the store leaves them out.
func NewVertexLeaf(qv *cypher.QueryVertex, keys []string) *FilterAndProjectVertices {
	meta := embedding.NewMeta()
	meta.AddEntry(qv.Var, embedding.VertexEntry)
	for _, key := range keys {
		meta.AddProp(qv.Var, key)
	}
	return &FilterAndProjectVertices{Vertex: qv, meta: meta, keys: keys}
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
func (op *FilterAndProjectVertices) Evaluate(r *Run) *dataflow.Dataset[embedding.Embedding] {
	return traced(op, r, func() *dataflow.Dataset[embedding.Embedding] { return op.scan(r, nil) })
}

// scan is the leaf's one scan in r: the rows of every vertex it reads or, with
// a key test, of those whose identifier passes it (scanRows).
func (op *FilterAndProjectVertices) scan(r *Run, test *keyTest) *dataflow.Dataset[embedding.Embedding] {
	qv := r.vertex(op.Vertex)
	return perPart(r.vertexScan(op), func(part *dataflow.Dataset[epgm.Vertex]) *dataflow.Dataset[embedding.Embedding] {
		return scanRows(part, test, func(lane *dataflow.Lane) func(epgm.Vertex, func(embedding.Embedding)) {
			sc := scratchOf(lane)
			return func(v epgm.Vertex, emit func(embedding.Embedding)) {
				if !test.keepsIDs(vertexIDs(v)) {
					return
				}
				if row, ok := op.row(sc, qv, &v); ok {
					emit(row)
				}
			}
		})
	})
}

// vertexIDs is a vertex's identifiers as a vertex leaf's row holds them.
func vertexIDs(v epgm.Vertex) [3]epgm.ID { return [3]epgm.ID{v.ID} }

// row is the leaf's Select-Project-Transform of one data vertex for the run's
// instance qv of its query vertex: its row, if it has one. The scan calls it
// on every vertex; a join that looks the leaf up (JoinEmbeddings.walk) selects
// the vertices of the ids it looks for the same way and writes their rows
// into a buffer it reuses.
func (op *FilterAndProjectVertices) row(sc *scratch, qv *cypher.QueryVertex, v *epgm.Vertex) (embedding.Embedding, bool) {
	if !op.selects(qv, v) {
		return embedding.Embedding{}, false
	}
	ids := [1]epgm.ID{v.ID}
	return sc.slab.Row(ids[:], sc.project(v.Properties, op.keys)), true
}

// selects reports whether the leaf makes a row of data vertex v for the run's
// instance qv of its query vertex: its label and its predicates.
func (op *FilterAndProjectVertices) selects(qv *cypher.QueryVertex, v *epgm.Vertex) bool {
	return cypher.MatchesLabel(v.Label, qv.Labels) && cypher.EvalElement(qv.Predicates, qv.Var, v.Properties)
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

// scanRows is a leaf's scan of one part of what it reads, a FlatMapWith:
// newRows makes an attempt's function that writes an element's rows - none
// for one whose identifiers do not pass the key test, if there is one
// (keyTest.keepsIDs). The test counts the elements the scan reads.
func scanRows[T any](part *dataflow.Dataset[T], test *keyTest,
	newRows func(*dataflow.Lane) func(T, func(embedding.Embedding))) *dataflow.Dataset[embedding.Embedding] {
	if test != nil {
		test.read += part.Count()
	}
	return dataflow.FlatMapWith(part, newRows)
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
	Edge *cypher.QueryEdge

	meta *embedding.Meta
	loop bool
}

// NewFilterAndProjectEdges builds the leaf and its output metadata.
func NewFilterAndProjectEdges(qe *cypher.QueryEdge) *FilterAndProjectEdges {
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
	return &FilterAndProjectEdges{Edge: qe, meta: meta, loop: loop}
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
func (op *FilterAndProjectEdges) Evaluate(r *Run) *dataflow.Dataset[embedding.Embedding] {
	return traced(op, r, func() *dataflow.Dataset[embedding.Embedding] { return op.scan(r, nil) })
}

// scan is the leaf's one scan in r: the rows of every edge it reads or, with a
// key test, of those whose identifiers pass it (scanRows) - asked of a
// directed edge that is no loop only, whose row's columns are its source,
// itself and its target.
func (op *FilterAndProjectEdges) scan(r *Run, test *keyTest) *dataflow.Dataset[embedding.Embedding] {
	qe := r.edge(op.Edge)
	return perPart(r.edgeScan(op), func(part *dataflow.Dataset[epgm.Edge]) *dataflow.Dataset[embedding.Embedding] {
		return scanRows(part, test, func(lane *dataflow.Lane) func(epgm.Edge, func(embedding.Embedding)) {
			sc := scratchOf(lane)
			return func(de epgm.Edge, emit func(embedding.Embedding)) {
				if !test.keepsIDs(edgeIDs(de)) {
					return
				}
				row, ok := op.row(sc, qe, &de, false)
				if !ok {
					return
				}
				emit(row)
				if qe.Undirected && de.Source != de.Target {
					row, _ = op.row(sc, qe, &de, true)
					emit(row)
				}
			}
		})
	})
}

// edgeIDs is an edge's identifiers as the row of a directed non-loop edge
// leaf holds them: source, edge, target.
func edgeIDs(de epgm.Edge) [3]epgm.ID { return [3]epgm.ID{de.Source, de.ID, de.Target} }

// row is the leaf's Select-Project-Transform of one data edge for the run's
// instance qe of its query edge: its row, if it has one. reversed asks for the
// second row an undirected query edge makes of a data edge that is no loop,
// read against its direction; it is asked of an edge that has just made its
// first, and the tests are not repeated. The scan calls row on every edge; a
// join that walks the leaf (JoinEmbeddings.walk) selects the edges it reads
// the same way and writes their rows into a buffer it reuses.
func (op *FilterAndProjectEdges) row(sc *scratch, qe *cypher.QueryEdge, de *epgm.Edge, reversed bool) (embedding.Embedding, bool) {
	ids := [3]epgm.ID{de.Source, de.ID, de.Target}
	if reversed {
		ids[0], ids[2] = ids[2], ids[0]
	} else if !op.selects(qe, de) {
		return embedding.Embedding{}, false
	}
	cols := ids[:]
	if op.loop {
		cols = ids[:2]
	}
	return sc.slab.Row(cols, sc.project(de.Properties, qe.Projection)), true
}

// selects reports whether the leaf makes a row of data edge de for the run's
// instance qe of its query edge: its label, its predicates and, for a loop,
// its ends.
func (op *FilterAndProjectEdges) selects(qe *cypher.QueryEdge, de *epgm.Edge) bool {
	return cypher.MatchesLabel(de.Label, qe.Types) && cypher.EvalElement(qe.Predicates, qe.Var, de.Properties) &&
		(!op.loop || de.Source == de.Target)
}

func labelSuffix(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	return ":" + strings.Join(labels, "|")
}
