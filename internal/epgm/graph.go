package epgm

import (
	"gradoop/internal/dataflow"
)

// LogicalGraph is the EPGM's primary abstraction: a graph head plus
// partitioned vertex and edge datasets. It is the input and output type of
// all unary analytical operators.
type LogicalGraph struct {
	env      *dataflow.Env
	Head     GraphHead
	Vertices *dataflow.Dataset[Vertex]
	Edges    *dataflow.Dataset[Edge]
}

// NewLogicalGraph wraps existing datasets into a logical graph.
func NewLogicalGraph(env *dataflow.Env, head GraphHead, vertices *dataflow.Dataset[Vertex], edges *dataflow.Dataset[Edge]) *LogicalGraph {
	return &LogicalGraph{env: env, Head: head, Vertices: vertices, Edges: edges}
}

// GraphFromSlices builds a logical graph from in-memory element slices,
// stamping every element with the new graph's membership. It is the entry
// point used by generators and tests.
func GraphFromSlices(env *dataflow.Env, label string, vertices []Vertex, edges []Edge) *LogicalGraph {
	head := GraphHead{ID: NewID(), Label: label}
	vs := make([]Vertex, len(vertices))
	for i, v := range vertices {
		v.GraphIDs = v.GraphIDs.Clone().Add(head.ID)
		vs[i] = v
	}
	es := make([]Edge, len(edges))
	for i, e := range edges {
		e.GraphIDs = e.GraphIDs.Clone().Add(head.ID)
		es[i] = e
	}
	return &LogicalGraph{
		env:      env,
		Head:     head,
		Vertices: dataflow.FromSlice(env, vs),
		Edges:    dataflow.FromSlice(env, es),
	}
}

// Env returns the graph's execution environment.
func (g *LogicalGraph) Env() *dataflow.Env { return g.env }

// VertexCount returns |V|.
func (g *LogicalGraph) VertexCount() int64 { return g.Vertices.Count() }

// EdgeCount returns |E|.
func (g *LogicalGraph) EdgeCount() int64 { return g.Edges.Count() }

// GraphCollection is a set of logical graphs sharing vertex and edge
// datasets; membership is stored on the elements (Definition 2.1).
type GraphCollection struct {
	env      *dataflow.Env
	Heads    *dataflow.Dataset[GraphHead]
	Vertices *dataflow.Dataset[Vertex]
	Edges    *dataflow.Dataset[Edge]
}

// NewGraphCollection wraps existing datasets into a collection.
func NewGraphCollection(env *dataflow.Env, heads *dataflow.Dataset[GraphHead], vertices *dataflow.Dataset[Vertex], edges *dataflow.Dataset[Edge]) *GraphCollection {
	return &GraphCollection{env: env, Heads: heads, Vertices: vertices, Edges: edges}
}

// Env returns the collection's execution environment.
func (c *GraphCollection) Env() *dataflow.Env { return c.env }

// GraphCount returns the number of logical graphs in the collection.
func (c *GraphCollection) GraphCount() int64 { return c.Heads.Count() }

// Graph materializes a single logical graph of the collection by id,
// filtering the shared element datasets on membership. The second result is
// false if no head with that id exists.
func (c *GraphCollection) Graph(id ID) (*LogicalGraph, bool) {
	var head GraphHead
	found := false
	for _, h := range c.Heads.Collect() {
		if h.ID == id {
			head, found = h, true
			break
		}
	}
	if !found {
		return nil, false
	}
	vs := dataflow.Filter(c.Vertices, func(v Vertex) bool { return v.GraphIDs.Contains(id) })
	es := dataflow.Filter(c.Edges, func(e Edge) bool { return e.GraphIDs.Contains(id) })
	return &LogicalGraph{env: c.env, Head: head, Vertices: vs, Edges: es}, true
}

// AsCollection lifts a logical graph into a single-element collection.
func (g *LogicalGraph) AsCollection() *GraphCollection {
	return &GraphCollection{
		env:      g.env,
		Heads:    dataflow.FromSlice(g.env, []GraphHead{g.Head}),
		Vertices: g.Vertices,
		Edges:    g.Edges,
	}
}
