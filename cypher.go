package gradoop

import (
	"context"
	"time"

	"gradoop/internal/core"
	"gradoop/internal/epgm"
	"gradoop/internal/operators"
	"gradoop/internal/planner"
	"gradoop/internal/stats"
)

// Semantics selects homomorphic or isomorphic matching for one element kind
// (§2.3: unlike Neo4j, vertex and edge semantics are chosen independently).
type Semantics = operators.Semantics

// Matching semantics.
const (
	// Homomorphism allows a query variable mapping to repeat data elements.
	Homomorphism = operators.Homomorphism
	// Isomorphism requires pairwise distinct data elements per kind.
	Isomorphism = operators.Isomorphism
)

// QueryOption configures a Cypher execution.
type QueryOption func(*queryConfig)

type queryConfig struct {
	cfg core.Config
}

// WithVertexSemantics sets the vertex matching semantics (default
// Homomorphism).
func WithVertexSemantics(s Semantics) QueryOption {
	return func(q *queryConfig) { q.cfg.Vertex = s }
}

// WithEdgeSemantics sets the edge matching semantics (default Homomorphism).
func WithEdgeSemantics(s Semantics) QueryOption {
	return func(q *queryConfig) { q.cfg.Edge = s }
}

// WithParams provides values for $parameters.
func WithParams(params map[string]PropertyValue) QueryOption {
	return func(q *queryConfig) { q.cfg.Params = params }
}

// WithStatistics reuses pre-computed graph statistics instead of collecting
// them per query.
func WithStatistics(s *Statistics) QueryOption {
	return func(q *queryConfig) { q.cfg.Stats = s.s }
}

// WithIndex executes leaf scans against a label-partitioned graph index
// (§3.4), loading only the datasets a label predicate selects. Over an index
// a join whose one input turns out small against a leaf on its other side
// broadcasts it into the leaf's scan instead of repartitioning both; rows
// without ORDER BY may come out in another order than from a plain scan.
func WithIndex(idx *GraphIndex) QueryOption {
	return func(q *queryConfig) { q.cfg.Access = planner.IndexedAccess{Index: idx.idx} }
}

// WithTimeout aborts query execution after d: the dataflow job is
// cancelled mid-stage (a runaway variable-length expansion or cartesian
// join stops within milliseconds) and the query returns
// context.DeadlineExceeded. Partial metrics remain readable on the graph's
// environment.
func WithTimeout(d time.Duration) QueryOption {
	return func(q *queryConfig) { q.cfg.Timeout = d }
}

// WithContext cancels query execution when ctx is done. It composes with
// WithTimeout: whichever fires first cancels the job.
func WithContext(ctx context.Context) QueryOption {
	return func(q *queryConfig) { q.cfg.Context = ctx }
}

// WithoutSubqueryReuse disables recurring-subquery leaf sharing: by default,
// structurally identical sub-patterns (e.g. the three (:Person)-[:knows]->
// (:Person) edges of a triangle query) evaluate one shared leaf behind
// variable aliases.
func WithoutSubqueryReuse() QueryOption {
	return func(q *queryConfig) { q.cfg.DisableSubqueryReuse = true }
}

func (g *LogicalGraph) execute(query string, opts []QueryOption) (*core.Result, error) {
	var qc queryConfig
	for _, o := range opts {
		o(&qc)
	}
	return core.Execute(g.g, query, qc.cfg)
}

// Cypher evaluates a pattern matching query and returns the matches as a
// graph collection (Definition 2.4): one new logical graph per match, with
// variable bindings stored as graph head properties.
func (g *LogicalGraph) Cypher(query string, opts ...QueryOption) (*GraphCollection, error) {
	res, err := g.execute(query, opts)
	if err != nil {
		return nil, err
	}
	return &GraphCollection{env: g.env, c: res.GraphCollection()}, nil
}

// Row is one tabular query result.
type Row = core.Row

// CypherRows evaluates a query and returns Neo4j-style rows per its RETURN
// clause.
func (g *LogicalGraph) CypherRows(query string, opts ...QueryOption) ([]Row, error) {
	res, err := g.execute(query, opts)
	if err != nil {
		return nil, err
	}
	return res.Rows(), nil
}

// CypherCount evaluates a query and returns the number of matches without
// materializing them.
func (g *LogicalGraph) CypherCount(query string, opts ...QueryOption) (int64, error) {
	res, err := g.execute(query, opts)
	if err != nil {
		return 0, err
	}
	return res.Count(), nil
}

// ExplainCypher plans a query and renders the chosen operator tree with
// cardinality estimates without executing it... it executes leaf statistics
// collection only when no statistics were supplied.
func (g *LogicalGraph) ExplainCypher(query string, opts ...QueryOption) (string, error) {
	var qc queryConfig
	for _, o := range opts {
		o(&qc)
	}
	res, err := core.Plan(g.g, query, qc.cfg)
	if err != nil {
		return "", err
	}
	return res.Explain(), nil
}

// Statistics are pre-computed graph statistics for the query planner
// (§3.2).
type Statistics struct {
	s *stats.GraphStatistics
}

// CollectStatistics aggregates the statistics the planner consumes: counts,
// label distributions, distinct endpoint and property-value counts.
func (g *LogicalGraph) CollectStatistics() *Statistics {
	return &Statistics{s: stats.Collect(g.g)}
}

// String renders the statistics.
func (s *Statistics) String() string { return s.s.String() }

// GraphIndex is the label-partitioned representation of a logical graph
// (§3.4's IndexedLogicalGraph).
type GraphIndex struct {
	idx *epgm.IndexedLogicalGraph
}

// BuildIndex partitions the graph's elements by type label: one copy of them
// in label-major order, of which a label's dataset is a range.
func (g *LogicalGraph) BuildIndex() *GraphIndex {
	return &GraphIndex{idx: epgm.BuildIndex(g.g)}
}
