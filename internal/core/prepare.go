package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"gradoop/internal/cypher"
	"gradoop/internal/epgm"
	"gradoop/internal/operators"
	"gradoop/internal/planner"
	"gradoop/internal/stats"
)

// Prepared is a compiled query: the parsed AST, the deferred query-graph
// template ($parameters unresolved) and the physical plan built from it.
// A Prepared is immutable and safe for concurrent use — Execute instantiates
// a fresh operator tree per call — so it is what the session's plan cache
// stores: parameterized calls reuse one Prepared and only bind differently.
type Prepared struct {
	Query    string
	AST      *cypher.Query
	Template *cypher.QueryGraph
	Plan     *planner.QueryPlan
	Stats    *stats.GraphStatistics
	Morph    operators.Morphism
}

// Prepare parses, simplifies and plans a query once, without binding
// parameters, so the result can be cached and executed many times. Stats and
// Access follow the same defaulting as Execute (memoized per-graph stats,
// plain access).
func Prepare(g *epgm.LogicalGraph, query string, cfg Config) (*Prepared, error) {
	access := cfg.Access
	if access == nil {
		access = planner.PlainAccess{Graph: g}
	}
	st := cfg.Stats
	if st == nil {
		st = GraphStats(g)
	}
	return PrepareWith(access, st, query, cfg)
}

// PrepareWith is Prepare for callers that manage their own graph access and
// statistics (the session engine): no defaulting, no graph handle needed.
func PrepareWith(access planner.GraphAccess, st *stats.GraphStatistics, query string, cfg Config) (*Prepared, error) {
	ast, err := cypher.Parse(query)
	if err != nil {
		return nil, err
	}
	tpl, err := cypher.BuildQueryGraphDeferred(ast)
	if err != nil {
		return nil, err
	}
	morph := operators.Morphism{Vertex: cfg.Vertex, Edge: cfg.Edge}
	pl := &planner.Planner{
		Stats:        st,
		Morph:        morph,
		DisableReuse: cfg.DisableSubqueryReuse,
	}
	plan, err := pl.Plan(access, tpl)
	if err != nil {
		return nil, err
	}
	return &Prepared{
		Query:    query,
		AST:      ast,
		Template: tpl,
		Plan:     plan,
		Stats:    st,
		Morph:    morph,
	}, nil
}

// Fingerprint returns the template plan's canonical key.
func (p *Prepared) Fingerprint() string { return p.Plan.Fingerprint() }

// Bind is the one step from a compiled query to a run of it: cfg.Params go
// into the template and the cached plan is re-instantiated against the run's
// graph access (cfg.Access, or a plain scan of g). Each call builds a fresh
// operator tree, so one Prepared serves concurrent executions, each on its
// own Env. The Result it returns is complete but for what a run produces:
// Execute fills in Embeddings from the engine, a cluster coordinator from its
// workers' partitions, and Plan only renders it.
func (p *Prepared) Bind(g *epgm.LogicalGraph, cfg Config) (*Result, error) {
	access := cfg.Access
	if access == nil {
		access = planner.PlainAccess{Graph: g}
	}
	binding, err := p.Template.Bind(cfg.Params)
	if err != nil {
		return nil, err
	}
	bound, err := planner.Rebind(p.Plan, access, binding)
	if err != nil {
		return nil, err
	}
	return &Result{
		Graph:      g,
		QueryGraph: binding.Graph,
		Plan:       bound,
		Meta:       bound.Meta(),
		Env:        access.Env(),
	}, nil
}

// Execute binds the query and runs it on the bound access's environment,
// with the fault tolerance the package-level Execute describes.
func (p *Prepared) Execute(g *epgm.LogicalGraph, cfg Config) (*Result, error) {
	res, err := p.Bind(g, cfg)
	if err != nil {
		return nil, err
	}
	env := res.Env
	if cfg.Trace != nil {
		env.SetTracer(cfg.Trace)
		defer env.SetTracer(nil)
	}
	ctx := cfg.Context
	if cfg.Timeout > 0 {
		if ctx == nil {
			ctx = context.Background()
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
		defer cancel()
	}
	env.Begin(ctx)
	res.Embeddings = res.Plan.Execute()
	if err := env.Finish(); err != nil {
		return nil, fmt.Errorf("core: execute %q: %w", p.Query, err)
	}
	res.Trace = cfg.Trace
	return res, nil
}

// Per-graph statistics memo: Execute with cfg.Stats == nil used to re-collect
// statistics on every call; GraphStats collects once per graph. Entries are
// keyed by graph identity, so a caller that is done with a graph it queried
// this way evicts its entry via DropGraphStats, or the memo keeps the graph
// reachable for the process lifetime. A session never writes it: it collects
// its own statistics and holds them with the graph they describe.
var (
	statsMu          sync.Mutex
	statsMemo        = map[*epgm.LogicalGraph]*stats.GraphStatistics{}
	statsCollections atomic.Int64
)

// GraphStats returns the memoized statistics for g, collecting them on the
// first call.
func GraphStats(g *epgm.LogicalGraph) *stats.GraphStatistics {
	statsMu.Lock()
	defer statsMu.Unlock()
	if st, ok := statsMemo[g]; ok {
		return st
	}
	st := stats.Collect(g)
	statsCollections.Add(1)
	statsMemo[g] = st
	return st
}

// DropGraphStats evicts g's memoized statistics. Callers that hold graphs
// long-term must drop retired graphs here, or the memo pins them forever;
// statistics pointers already handed out stay valid.
func DropGraphStats(g *epgm.LogicalGraph) {
	statsMu.Lock()
	delete(statsMemo, g)
	statsMu.Unlock()
}

// GraphStatsMemoized reports how many graphs have statistics in the memo; a
// session's whole life is tested to leave it unchanged.
func GraphStatsMemoized() int {
	statsMu.Lock()
	defer statsMu.Unlock()
	return len(statsMemo)
}

// StatsCollections reports how many times GraphStats actually collected
// statistics (memo misses) over the process lifetime; the regression test
// for repeated collection asserts on its delta.
func StatsCollections() int64 { return statsCollections.Load() }
