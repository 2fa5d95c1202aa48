// Package core implements the EPGM graph pattern matching operator
// (Definition 2.4), the paper's primary contribution: it parses a Cypher
// query, simplifies it into a query graph, plans a physical operator tree
// with the greedy cost-based planner and executes it on the dataflow engine.
// Results are available as a graph collection (the EPGM operator contract),
// as tabular rows (Neo4j-style), or as raw embeddings.
package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"gradoop/internal/cypher"
	"gradoop/internal/dataflow"
	"gradoop/internal/embedding"
	"gradoop/internal/epgm"
	"gradoop/internal/operators"
	"gradoop/internal/planner"
	"gradoop/internal/qstore"
	"gradoop/internal/stats"
	"gradoop/internal/trace"
)

// Config controls one query execution.
type Config struct {
	// Vertex and Edge semantics (Homomorphism or Isomorphism); the paper's
	// operator signature g.cypher(q, HOMO, ISO).
	Vertex operators.Semantics
	Edge   operators.Semantics
	// Params provides values for $parameters in the query.
	Params map[string]epgm.PropertyValue
	// Stats supplies pre-computed statistics; when nil they are collected
	// on the fly (and charged to the job's metrics).
	Stats *stats.GraphStatistics
	// Access overrides how leaves read the graph; when nil a PlainAccess
	// over the input graph is used. Pass an IndexedAccess to exploit the
	// label-partitioned representation (§3.4).
	Access planner.GraphAccess
	// DisableSubqueryReuse turns off recurring-subquery leaf sharing.
	DisableSubqueryReuse bool
	// Context cancels the dataflow job when it is done; Execute then
	// returns the context's error (with partial metrics intact on the
	// environment). Nil means not cancellable.
	Context context.Context
	// Timeout aborts execution after the given duration (0 = none); an
	// expired timeout surfaces as context.DeadlineExceeded. It composes
	// with Context: whichever fires first cancels the job.
	Timeout time.Duration
	// Trace, when non-nil, records per-stage execution spans (operator
	// attribution, per-partition rows/bytes/wall time, retries) into the
	// collector while the query runs. It powers Result.AnalyzedPlan and the
	// Chrome trace export. Nil — the default — disables tracing entirely;
	// execution takes the engine's zero-cost path and produces bit-identical
	// results and metrics.
	Trace *trace.Collector
}

// Result is an executed query.
type Result struct {
	Graph      *epgm.LogicalGraph
	QueryGraph *cypher.QueryGraph
	Plan       *planner.QueryPlan
	Embeddings *dataflow.Dataset[embedding.Embedding]
	Meta       *embedding.Meta
	// Env is the environment the query executed on (the graph's, unless
	// Config.Access overrode it).
	Env *dataflow.Env
	// Trace is the execution trace recorded during the run, or nil when
	// Config.Trace was not set. AnalyzedPlan and the Chrome export read it.
	Trace *trace.Collector

	// profile is the per-operator description of the run, built once on
	// first use (AnalyzedOps).
	profileOnce sync.Once
	profile     []qstore.OpMetrics
}

// Plan compiles and binds a query without executing it: the plan it returns
// is the one Execute would run for the same cfg.
func Plan(g *epgm.LogicalGraph, query string, cfg Config) (*planner.QueryPlan, error) {
	p, err := Prepare(g, query, cfg)
	if err != nil {
		return nil, err
	}
	res, err := p.Bind(g, cfg)
	if err != nil {
		return nil, err
	}
	return res.Plan, nil
}

// Execute runs a Cypher query against a logical graph. Execution is fault
// tolerant: a panic inside the dataflow job is contained and returned as a
// *dataflow.JobError, an expired Timeout or cancelled Context returns the
// context's error, and worker failures injected through the environment's
// FaultPlan are recovered transparently (bounded retries; only an
// exhausted retry budget becomes an error). In every failure case the
// environment's metrics remain readable, reflecting the work done up to
// the failure.
func Execute(g *epgm.LogicalGraph, query string, cfg Config) (*Result, error) {
	p, err := Prepare(g, query, cfg)
	if err != nil {
		return nil, err
	}
	return p.Execute(g, cfg)
}

// Count returns the number of matches.
func (r *Result) Count() int64 { return r.Embeddings.Count() }

// Explain renders the executed plan.
func (r *Result) Explain() string { return r.Plan.Explain() }

// Row is one tabular result row (Neo4j-style RETURN).
type Row struct {
	Columns []string
	Values  []epgm.PropertyValue
}

// String renders the row as "col: value, ...".
func (row Row) String() string {
	s := ""
	for i, c := range row.Columns {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s: %s", c, row.Values[i])
	}
	return s
}

// GraphCollection materializes the matches as new logical graphs
// (Definition 2.4): every embedding becomes a graph whose head stores the
// variable bindings as properties, and the matched data vertices and edges
// gain membership in the new graph.
func (r *Result) GraphCollection() *epgm.GraphCollection {
	env := r.Graph.Env()
	meta := r.Meta
	embeddings := r.Embeddings.Collect()

	heads := make([]epgm.GraphHead, 0, len(embeddings))
	vertexGraphs := map[epgm.ID]epgm.IDSet{}
	edgeGraphs := map[epgm.ID]epgm.IDSet{}

	for _, e := range embeddings {
		head := epgm.GraphHead{ID: epgm.NewID(), Label: "Match"}
		for c := 0; c < meta.Columns(); c++ {
			if e.IsNullAt(c) {
				continue
			}
			v := meta.Var(c)
			switch meta.Kind(c) {
			case embedding.VertexEntry:
				id := e.ID(c)
				head.Properties = head.Properties.Set(v, epgm.PVInt(int64(id)))
				vertexGraphs[id] = vertexGraphs[id].Add(head.ID)
			case embedding.EdgeEntry:
				id := e.ID(c)
				head.Properties = head.Properties.Set(v, epgm.PVInt(int64(id)))
				edgeGraphs[id] = edgeGraphs[id].Add(head.ID)
			case embedding.PathEntry:
				path := e.Path(c)
				head.Properties = head.Properties.Set(v, epgm.PVString(fmt.Sprintf("%v", path)))
				for i, id := range path {
					if i%2 == 0 {
						edgeGraphs[id] = edgeGraphs[id].Add(head.ID)
					} else {
						vertexGraphs[id] = vertexGraphs[id].Add(head.ID)
					}
				}
			}
		}
		heads = append(heads, head)
	}

	vs := dataflow.FlatMap(r.Graph.Vertices, func(v epgm.Vertex, emit func(epgm.Vertex)) {
		gs, ok := vertexGraphs[v.ID]
		if !ok {
			return
		}
		ids := v.GraphIDs.Clone()
		for _, g := range gs {
			ids = ids.Add(g)
		}
		v.GraphIDs = ids
		emit(v)
	})
	es := dataflow.FlatMap(r.Graph.Edges, func(e epgm.Edge, emit func(epgm.Edge)) {
		gs, ok := edgeGraphs[e.ID]
		if !ok {
			return
		}
		ids := e.GraphIDs.Clone()
		for _, g := range gs {
			ids = ids.Add(g)
		}
		e.GraphIDs = ids
		emit(e)
	})
	return epgm.NewGraphCollection(env, dataflow.FromSlice(env, heads), vs, es)
}
