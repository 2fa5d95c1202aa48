// Benchmarks regenerating the paper's evaluation (§4): one benchmark per
// table and figure, plus ablation benchmarks for the design decisions of
// §3 (operator fusion, the indexed graph representation, the compact
// embedding encoding, join strategies, statistics-driven planning and early
// predicate pushdown). The printed series (simulated cluster milliseconds
// per configuration) correspond to the paper's reported rows; cmd/bench
// renders the same experiments as full tables.
package gradoop_test

import (
	"fmt"
	"testing"

	"gradoop/internal/baseline"
	"gradoop/internal/benchkit"
	"gradoop/internal/core"
	"gradoop/internal/cypher"
	"gradoop/internal/dataflow"
	"gradoop/internal/embedding"
	"gradoop/internal/epgm"
	"gradoop/internal/ldbc"
	"gradoop/internal/operators"
	"gradoop/internal/planner"
	"gradoop/internal/stats"
)

// benchRunner caches datasets across benchmarks. Scale factors are reduced
// relative to cmd/bench so `go test -bench .` completes quickly; the shapes
// are the same.
var benchRunner = func() *benchkit.Runner {
	r := benchkit.NewRunner()
	r.SFSmall = 0.05
	r.SFLarge = 0.5
	return r
}()

func runMeasured(b *testing.B, q benchkit.QueryID, sf float64, workers int, sel benchkit.Selectivity) {
	b.Helper()
	var last benchkit.Measurement
	for i := 0; i < b.N; i++ {
		m, err := benchRunner.Run(q, sf, workers, sel)
		if err != nil {
			b.Fatal(err)
		}
		last = m
	}
	b.ReportMetric(float64(last.SimTime.Microseconds())/1000, "simMs")
	b.ReportMetric(float64(last.Count), "matches")
	b.ReportMetric(last.Skew, "skew")
}

// BenchmarkFigure3 regenerates the speedup-over-workers experiment:
// operational queries on the large factor, analytical ones on the small.
func BenchmarkFigure3(b *testing.B) {
	for _, q := range benchkit.AllQueries {
		sf := benchRunner.SFSmall
		if q.Operational() {
			sf = benchRunner.SFLarge
		}
		for _, w := range benchkit.Workers {
			b.Run(fmt.Sprintf("%s/workers=%d", q, w), func(b *testing.B) {
				runMeasured(b, q, sf, w, benchkit.Low)
			})
		}
	}
}

// BenchmarkFigure4 regenerates the data-volume experiment at 16 workers.
func BenchmarkFigure4(b *testing.B) {
	for _, q := range benchkit.AllQueries {
		for _, sf := range []float64{benchRunner.SFSmall, benchRunner.SFLarge} {
			b.Run(fmt.Sprintf("%s/sf=%g", q, sf), func(b *testing.B) {
				runMeasured(b, q, sf, 16, benchkit.Low)
			})
		}
	}
}

// BenchmarkFigure5 regenerates the predicate-selectivity experiment at 4
// workers.
func BenchmarkFigure5(b *testing.B) {
	for _, q := range []benchkit.QueryID{benchkit.Q1, benchkit.Q2, benchkit.Q3} {
		for _, sel := range benchkit.Selectivities {
			b.Run(fmt.Sprintf("%s/sel=%s", q, sel), func(b *testing.B) {
				runMeasured(b, q, benchRunner.SFLarge, 4, sel)
			})
		}
	}
}

// BenchmarkTable3 regenerates the intermediate-result-size table: the four
// sub-patterns per selectivity class; the match count is the table entry.
func BenchmarkTable3(b *testing.B) {
	for i, pat := range benchkit.Table3Patterns {
		for _, sel := range benchkit.Selectivities {
			b.Run(fmt.Sprintf("pattern%d/sel=%s", i+1, sel), func(b *testing.B) {
				var rows int64
				for i := 0; i < b.N; i++ {
					n, err := benchRunner.RunPattern(pat.Query, benchRunner.SFSmall, 4, sel)
					if err != nil {
						b.Fatal(err)
					}
					rows = n
				}
				b.ReportMetric(float64(rows), "rows")
			})
		}
	}
}

// BenchmarkTable4 regenerates the full runtime matrix (a reduced sweep: the
// complete matrix is the union of the Figure 3–5 benchmarks; cmd/bench
// prints it in full).
func BenchmarkTable4(b *testing.B) {
	for _, q := range []benchkit.QueryID{benchkit.Q1, benchkit.Q2, benchkit.Q3} {
		for _, sel := range benchkit.Selectivities {
			for _, w := range []int{1, 4, 16} {
				b.Run(fmt.Sprintf("%s/sel=%s/workers=%d", q, sel, w), func(b *testing.B) {
					runMeasured(b, q, benchRunner.SFLarge, w, sel)
				})
			}
		}
	}
	for _, q := range []benchkit.QueryID{benchkit.Q4, benchkit.Q5, benchkit.Q6} {
		for _, w := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/workers=%d", q, w), func(b *testing.B) {
				runMeasured(b, q, benchRunner.SFSmall, w, benchkit.Low)
			})
		}
	}
}

// BenchmarkCardinalities regenerates the appendix result-cardinality tables;
// the "matches" metric is the reported cardinality.
func BenchmarkCardinalities(b *testing.B) {
	for _, q := range benchkit.AllQueries {
		sels := benchkit.Selectivities
		if !q.Operational() {
			sels = []benchkit.Selectivity{benchkit.Low}
		}
		for _, sel := range sels {
			for _, sf := range []float64{benchRunner.SFSmall, benchRunner.SFLarge} {
				b.Run(fmt.Sprintf("%s/sel=%s/sf=%g", q, sel, sf), func(b *testing.B) {
					runMeasured(b, q, sf, 4, sel)
				})
			}
		}
	}
}

// BenchmarkExtendedWorkload measures the openCypher extensions (OPTIONAL
// MATCH, aggregation, ordering, string predicates) on the LDBC-like data —
// an extended workload beyond the paper's tables.
func BenchmarkExtendedWorkload(b *testing.B) {
	for _, xq := range benchkit.ExtendedQueries {
		b.Run(xq.Name, func(b *testing.B) {
			var rows int
			for i := 0; i < b.N; i++ {
				n, err := benchRunner.RunExtended(xq.Query, benchRunner.SFLarge, 8)
				if err != nil {
					b.Fatal(err)
				}
				rows = n
			}
			b.ReportMetric(float64(rows), "rows")
		})
	}
}

// ---------------------------------------------------------------------------
// Ablation benchmarks for the §3 design decisions.

func ablationGraph(b *testing.B, workers int) (*epgm.LogicalGraph, *stats.GraphStatistics) {
	b.Helper()
	env := dataflow.NewEnv(dataflow.DefaultConfig(workers))
	d := ldbc.Generate(env, ldbc.Config{ScaleFactor: 0.2, Seed: 99})
	return d.Graph, stats.Collect(d.Graph)
}

// BenchmarkAblationIndexedGraph compares plain full scans against the
// label-partitioned IndexedLogicalGraph (§3.4) on a label-selective query.
func BenchmarkAblationIndexedGraph(b *testing.B) {
	g, st := ablationGraph(b, 4)
	idx := epgm.BuildIndex(g)
	query := `MATCH (p:Person)-[:knows]->(q:Person) RETURN *`
	run := func(b *testing.B, access planner.GraphAccess) {
		cfg := core.Config{Stats: st, Access: access, Edge: operators.Isomorphism}
		g.Env().ResetMetrics()
		for i := 0; i < b.N; i++ {
			if _, err := core.Execute(g, query, cfg); err != nil {
				b.Fatal(err)
			}
		}
		m := g.Env().Metrics()
		b.ReportMetric(float64(m.TotalCPU)/float64(b.N), "elements/op")
	}
	b.Run("plain-scan", func(b *testing.B) { run(b, planner.PlainAccess{Graph: g}) })
	b.Run("indexed", func(b *testing.B) { run(b, planner.IndexedAccess{Index: idx}) })
}

// BenchmarkAblationPredicatePushdown compares the engine's early predicate
// evaluation against the GraphFrames-style baseline that materializes all
// label-only matches first (§5): the "intermediate" metric shows the blowup
// the paper attributes to late filtering.
func BenchmarkAblationPredicatePushdown(b *testing.B) {
	g, st := ablationGraph(b, 4)
	d := ldbc.Generate(dataflow.NewEnv(dataflow.DefaultConfig(1)), ldbc.Config{ScaleFactor: 0.2, Seed: 99})
	common, _, _ := d.FirstNamesBySelectivity()
	query := `MATCH (p:Person)-[:knows]->(q:Person) WHERE p.firstName = '` + common + `' RETURN *`

	b.Run("engine-pushdown", func(b *testing.B) {
		cfg := core.Config{Stats: st}
		var matches int64
		for i := 0; i < b.N; i++ {
			res, err := core.Execute(g, query, cfg)
			if err != nil {
				b.Fatal(err)
			}
			matches = res.Count()
		}
		b.ReportMetric(float64(matches), "matches")
	})
	b.Run("baseline-postfilter", func(b *testing.B) {
		ast, err := cypher.Parse(query)
		if err != nil {
			b.Fatal(err)
		}
		qg, err := cypher.BuildQueryGraph(ast, nil)
		if err != nil {
			b.Fatal(err)
		}
		m := baseline.NewMotifMatcher(g)
		var matches, intermediate int
		for i := 0; i < b.N; i++ {
			res, err := m.Match(qg)
			if err != nil {
				b.Fatal(err)
			}
			matches = len(res)
			intermediate = m.IntermediateRows
		}
		b.ReportMetric(float64(matches), "matches")
		b.ReportMetric(float64(intermediate), "intermediate")
	})
}

// boxedRow is the naive embedding representation the compact byte encoding
// (§3.3) is benchmarked against.
type boxedRow struct {
	ids   []epgm.ID
	paths [][]epgm.ID
	props []epgm.PropertyValue
}

// BenchmarkAblationEmbeddingEncoding compares merge throughput of the
// paper's three-array byte embedding against boxed rows.
func BenchmarkAblationEmbeddingEncoding(b *testing.B) {
	var left embedding.Embedding
	left = left.AppendID(1).AppendID(2).AppendID(3)
	left = left.AppendProps(epgm.PVString("Alice"), epgm.PVInt(1984))
	var right embedding.Embedding
	right = right.AppendID(3).AppendPath([]epgm.ID{7, 8, 9}).AppendID(4)
	right = right.AppendProps(epgm.PVString("Bob"))

	b.Run("byte-embedding", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			merged := left.Merge(right, []int{0})
			if merged.Columns() != 5 {
				b.Fatal("merge broken")
			}
		}
	})
	b.Run("boxed-rows", func(b *testing.B) {
		b.ReportAllocs()
		l := boxedRow{ids: []epgm.ID{1, 2, 3},
			props: []epgm.PropertyValue{epgm.PVString("Alice"), epgm.PVInt(1984)}}
		r := boxedRow{ids: []epgm.ID{3, 4}, paths: [][]epgm.ID{{7, 8, 9}},
			props: []epgm.PropertyValue{epgm.PVString("Bob")}}
		for i := 0; i < b.N; i++ {
			merged := boxedRow{
				ids:   append(append([]epgm.ID{}, l.ids...), r.ids[1:]...),
				props: append(append([]epgm.PropertyValue{}, l.props...), r.props...),
			}
			for _, p := range r.paths {
				merged.paths = append(merged.paths, append([]epgm.ID{}, p...))
			}
			if len(merged.ids) != 4 {
				b.Fatal("merge broken")
			}
		}
	})
}

// BenchmarkAblationOperatorFusion compares the fused
// Select→Project→Transform FlatMap (§3.1) against the naive
// Filter→Map→Map chain it replaces.
func BenchmarkAblationOperatorFusion(b *testing.B) {
	env := dataflow.NewEnv(dataflow.DefaultConfig(4))
	d := ldbc.Generate(env, ldbc.Config{ScaleFactor: 0.5, Seed: 5})
	vertices := d.Graph.Vertices

	b.Run("fused-flatmap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out := dataflow.FlatMap(vertices, func(v epgm.Vertex, emit func(embedding.Embedding)) {
				if v.Label != "Person" {
					return
				}
				var e embedding.Embedding
				e = e.AppendID(v.ID)
				e = e.AppendProps(v.Properties.Get("firstName"))
				emit(e)
			})
			if out.IsEmpty() {
				b.Fatal("no output")
			}
		}
	})
	b.Run("filter-map-map", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			filtered := dataflow.Filter(vertices, func(v epgm.Vertex) bool { return v.Label == "Person" })
			projected := dataflow.Map(filtered, func(v epgm.Vertex) epgm.Vertex {
				return epgm.Vertex{ID: v.ID, Properties: epgm.Properties{}.
					Set("firstName", v.Properties.Get("firstName"))}
			})
			out := dataflow.Map(projected, func(v epgm.Vertex) embedding.Embedding {
				var e embedding.Embedding
				e = e.AppendID(v.ID)
				e = e.AppendProps(v.Properties.Get("firstName"))
				return e
			})
			if out.IsEmpty() {
				b.Fatal("no output")
			}
		}
	})
}

// BenchmarkAblationExpandVsUnrolledJoins compares ExpandEmbeddings' bulk
// iteration (§3.1) against the naive translation §2.5 describes — the union
// of one fixed-length k-way join chain per admissible path length.
func BenchmarkAblationExpandVsUnrolledJoins(b *testing.B) {
	g, st := ablationGraph(b, 4)
	cfg := core.Config{Stats: st} // homomorphism: path tuples match chain tuples

	varLength := `MATCH (p:Person)-[:knows*1..3]->(q:Person) RETURN *`
	unrolled := []string{
		`MATCH (p:Person)-[:knows]->(q:Person) RETURN *`,
		`MATCH (p:Person)-[:knows]->()-[:knows]->(q:Person) RETURN *`,
		`MATCH (p:Person)-[:knows]->()-[:knows]->()-[:knows]->(q:Person) RETURN *`,
	}

	var expandCount, unrolledCount int64
	b.Run("bulk-iteration-expand", func(b *testing.B) {
		var sim float64
		for i := 0; i < b.N; i++ {
			g.Env().ResetMetrics()
			res, err := core.Execute(g, varLength, cfg)
			if err != nil {
				b.Fatal(err)
			}
			expandCount = res.Count()
			sim = float64(g.Env().Metrics().SimTime.Microseconds()) / 1000
		}
		b.ReportMetric(sim, "simMs")
		b.ReportMetric(float64(expandCount), "matches")
	})
	b.Run("unrolled-kway-joins", func(b *testing.B) {
		var sim float64
		for i := 0; i < b.N; i++ {
			g.Env().ResetMetrics()
			unrolledCount = 0
			for _, q := range unrolled {
				res, err := core.Execute(g, q, cfg)
				if err != nil {
					b.Fatal(err)
				}
				unrolledCount += res.Count()
			}
			sim = float64(g.Env().Metrics().SimTime.Microseconds()) / 1000
		}
		b.ReportMetric(sim, "simMs")
		b.ReportMetric(float64(unrolledCount), "matches")
	})
	if expandCount != 0 && unrolledCount != 0 && expandCount != unrolledCount {
		b.Fatalf("expand=%d unrolled=%d must agree", expandCount, unrolledCount)
	}
}

// BenchmarkAblationSubqueryReuse measures recurring-subquery leaf sharing
// (§6's "recurring subqueries" future work) on Q5, whose three knows edges
// and three Person vertices are structurally identical.
func BenchmarkAblationSubqueryReuse(b *testing.B) {
	g, st := ablationGraph(b, 4)
	query := benchkit.Q5.Text()
	for _, tc := range []struct {
		name    string
		disable bool
	}{{"shared-leaves", false}, {"duplicated-leaves", true}} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := core.Config{Stats: st, Edge: operators.Isomorphism, DisableSubqueryReuse: tc.disable}
			var sim float64
			for i := 0; i < b.N; i++ {
				g.Env().ResetMetrics()
				if _, err := core.Execute(g, query, cfg); err != nil {
					b.Fatal(err)
				}
				sim = float64(g.Env().Metrics().SimTime.Microseconds()) / 1000
			}
			b.ReportMetric(sim, "simMs")
		})
	}
}

// BenchmarkAblationGreedyPlanner compares the greedy statistics-driven
// planner (§3.2) against a left-deep in-query-order baseline on a query
// whose written order is adversarial: the selective predicate comes last,
// so the naive order materializes the tag-co-membership blowup first.
func BenchmarkAblationGreedyPlanner(b *testing.B) {
	g, st := ablationGraph(b, 4)
	d := ldbc.Generate(dataflow.NewEnv(dataflow.DefaultConfig(1)), ldbc.Config{ScaleFactor: 0.2, Seed: 99})
	_, _, rare := d.FirstNamesBySelectivity()
	query := `MATCH (q:Person)-[:hasInterest]->(t:Tag),
	                (p:Person)-[:hasInterest]->(t),
	                (p)-[:knows]->(q)
	          WHERE p.firstName = '` + rare + `' RETURN *`
	ast, err := cypher.Parse(query)
	if err != nil {
		b.Fatal(err)
	}
	qg, err := cypher.BuildQueryGraph(ast, nil)
	if err != nil {
		b.Fatal(err)
	}
	pl := &planner.Planner{Stats: st, Morph: operators.Morphism{Edge: operators.Isomorphism}}
	access := planner.PlainAccess{Graph: g}
	for _, tc := range []struct {
		name string
		plan func() (*planner.QueryPlan, error)
	}{
		{"greedy", func() (*planner.QueryPlan, error) { return pl.Plan(access, qg) }},
		{"left-deep-query-order", func() (*planner.QueryPlan, error) { return pl.PlanLeftDeep(access, qg) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var sim float64
			var count int64
			for i := 0; i < b.N; i++ {
				g.Env().ResetMetrics()
				qp, err := tc.plan()
				if err != nil {
					b.Fatal(err)
				}
				count = qp.Execute().Count()
				sim = float64(g.Env().Metrics().SimTime.Microseconds()) / 1000
			}
			b.ReportMetric(sim, "simMs")
			b.ReportMetric(float64(count), "matches")
		})
	}
}
