package operators

import (
	"gradoop/internal/cypher"
	"gradoop/internal/dataflow"
	"gradoop/internal/embedding"
	"gradoop/internal/epgm"
)

// GraphAccess is how a run reads the data graph: the environment its stages
// run on and what a leaf scans for a label alternation, so that one plan runs
// over the plain representation (full scans) and over the label-partitioned
// store (per-label datasets, §3.4) alike.
type GraphAccess interface {
	Env() *dataflow.Env
	// Vertices returns what a leaf scans for a label alternation (empty =
	// all).
	Vertices(labels []string) epgm.Scan[epgm.Vertex]
	// Edges returns what a leaf scans for a type alternation.
	Edges(types []string) epgm.Scan[epgm.Edge]
}

// Run is one evaluation of a plan: the graph it reads and the binding that
// gives the plan's query elements and $parameters their values. The operator
// tree is a description that every run of the query shares and none writes;
// what a run keeps while it evaluates - every leaf's scan, cut once, and every
// Cached operator's result - is the run's. A run evaluates on one goroutine,
// so nothing in it is locked.
type Run struct {
	access  GraphAccess
	binding *cypher.Binding
	env     *dataflow.Env
	kept    map[Operator]kept
}

// kept is what a run keeps of one operator: a leaf's scan or a Cached
// operator's result.
type kept struct {
	vertices epgm.Scan[epgm.Vertex]
	edges    epgm.Scan[epgm.Edge]
	rows     *dataflow.Dataset[embedding.Embedding]
}

// NewRun starts a run over access. b is the binding of the query graph the
// plan was built from; nil runs the plan's own query elements as they are.
func NewRun(access GraphAccess, b *cypher.Binding) *Run {
	return &Run{access: access, binding: b, env: access.Env(), kept: map[Operator]kept{}}
}

// vertexScan is what a vertex leaf reads in this run, cut the first time it
// is asked for: a join that probes the leaf in place asks before the leaf runs.
func (r *Run) vertexScan(op *FilterAndProjectVertices) epgm.Scan[epgm.Vertex] {
	k, ok := r.kept[op]
	if !ok {
		k.vertices = r.access.Vertices(op.Vertex.Labels)
		r.kept[op] = k
	}
	return k.vertices
}

// edgeScan is vertexScan for an edge leaf.
func (r *Run) edgeScan(op *FilterAndProjectEdges) epgm.Scan[epgm.Edge] {
	k, ok := r.kept[op]
	if !ok {
		k.edges = r.access.Edges(op.Edge.Types)
		r.kept[op] = k
	}
	return k.edges
}

// vertex returns the run's instance of a query vertex of the plan: the
// binding's, whose predicates carry the parameters' values.
func (r *Run) vertex(qv *cypher.QueryVertex) *cypher.QueryVertex {
	if r.binding == nil {
		return qv
	}
	return r.binding.Vertices[qv]
}

// edge is vertex for a query edge.
func (r *Run) edge(qe *cypher.QueryEdge) *cypher.QueryEdge {
	if r.binding == nil {
		return qe
	}
	return r.binding.Edges[qe]
}

// resolve returns predicates the plan holds as the query wrote them with the
// binding's values in place of their $parameters. Binding the query graph
// resolved these same expressions once, so every parameter has its value.
func (r *Run) resolve(preds []cypher.Expr) []cypher.Expr {
	if r.binding == nil || len(r.binding.Params) == 0 || len(preds) == 0 {
		return preds
	}
	out := make([]cypher.Expr, len(preds))
	for i, p := range preds {
		var err error
		if out[i], err = cypher.ResolveParams(p, r.binding.Params); err != nil {
			panic(err)
		}
	}
	return out
}
