package core

import (
	"reflect"
	"testing"

	"gradoop/internal/baseline"
	"gradoop/internal/cypher"
	"gradoop/internal/dataflow"
	"gradoop/internal/epgm"
	"gradoop/internal/operators"
	"gradoop/internal/stats"
)

// TestSlabRowsSurviveRetries: the operators carve rows from one slab per
// partition, kept in the partition's lane for the job. A join-and-expand query
// on four partitions, under a seeded schedule that kills an attempt of every
// kind of stage - leaf, join, expand hop, finalize - some of them twice, must
// return rows bit-identical to the failure-free run, in the same order, and as
// many as the brute-force oracle counts: a retried attempt carves on behind
// what the killed one built, and nothing an attempt emitted before it was
// killed is seen again. Run under -race, it also shows that partitions share
// no slab.
func TestSlabRowsSurviveRetries(t *testing.T) {
	const workers = 4
	query := `MATCH (a:Person)-[k:knows]->(b:Person), (b)-[e:knows*1..2]->(c:Person) WHERE a.i < 12 RETURN *`
	for _, morph := range []operators.Morphism{
		{Vertex: operators.Homomorphism, Edge: operators.Isomorphism},
		{Vertex: operators.Isomorphism, Edge: operators.Isomorphism},
	} {
		cfg := Config{Vertex: morph.Vertex, Edge: morph.Edge}
		vs, es := ringElements(40)
		run := func(plan *dataflow.FaultPlan) (*Result, dataflow.MetricsSnapshot) {
			env := dataflow.NewEnv(dataflow.DefaultConfig(workers))
			g := epgm.NewLogicalGraph(env, epgm.GraphHead{ID: epgm.NewID()},
				dataflow.FromSlice(env, vs), dataflow.FromSlice(env, es))
			cfg := cfg
			cfg.Stats = stats.Collect(g)
			env.ResetMetrics()
			env.InjectFaults(plan)
			res, err := Execute(g, query, cfg)
			if err != nil {
				t.Fatalf("%v/%v: %v", morph.Vertex, morph.Edge, err)
			}
			return res, env.Metrics()
		}

		clean, m := run(nil)
		want := wireRows(clean.Embeddings.Collect())
		if len(want) == 0 {
			t.Fatal("the query must produce rows to say anything")
		}
		kills := dataflow.RandomKills(2017, 3*int(m.Stages), m.Stages, workers)
		faulty, fm := run(&dataflow.FaultPlan{MaxRetries: 3 * int(m.Stages), Kills: kills})
		if fm.Retries == 0 || fm.RetriedStages < m.Stages/2 {
			t.Fatalf("schedule too thin: %d retries over %d of %d stages", fm.Retries, fm.RetriedStages, m.Stages)
		}
		if got := wireRows(faulty.Embeddings.Collect()); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v/%v: rows after %d retries differ from the failure-free run (%d vs %d)",
				morph.Vertex, morph.Edge, fm.Retries, len(got), len(want))
		}

		ast, err := cypher.Parse(query)
		if err != nil {
			t.Fatal(err)
		}
		qg, err := cypher.BuildQueryGraph(ast, nil)
		if err != nil {
			t.Fatal(err)
		}
		if oracle := baseline.NewReference(faulty.Graph).Count(qg, morph); int64(oracle) != faulty.Count() {
			t.Fatalf("%v/%v: engine %d rows, oracle %d", morph.Vertex, morph.Edge, faulty.Count(), oracle)
		}
	}
}
