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
	// Store returns the pinned store the edges are ranges of, nil for a plain
	// graph. Over a store a variable-length path walks the store's adjacency
	// in place (ExpandEmbeddings); over a plain graph it is the bulk
	// iteration.
	Store() *epgm.Store
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
	// filters are the key sets the joins being evaluated hand the joins and
	// expansions below them (JoinEmbeddings.PlaceKeySets), by target, each
	// installed by Run.handOn for as long as the input it filters runs: a
	// run's, never an operator's, as the plan is every run's.
	filters map[Operator][]*keyFilter
	labels  Labeler
	observe func(Operator, *dataflow.Dataset[embedding.Embedding])
}

// Labeler names a plan's operators in a trace: each one's Description,
// rendered once for the plan rather than once for every traced evaluation.
type Labeler interface {
	Label(op Operator) string
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

// WithLabels has the run's traced operators named by l instead of rendering
// their Description (nil: render it). It returns r.
func (r *Run) WithLabels(l Labeler) *Run {
	r.labels = l
	return r
}

// Observe has the run hand f the output of every operator that evaluates in
// a traced scope - every one but the reuse wrappers - as it returns it: what
// a tool that measures one run's operators reads (benchkit.WrittenBy). It
// returns r.
func (r *Run) Observe(f func(op Operator, out *dataflow.Dataset[embedding.Embedding])) *Run {
	r.observe = f
	return r
}

// label is what the run's trace calls op.
func (r *Run) label(op Operator) string {
	if r.labels != nil {
		return r.labels.Label(op)
	}
	return op.Description()
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
