package core

import (
	"testing"

	"gradoop/internal/dataflow"
	"gradoop/internal/operators"
	"gradoop/internal/stats"
)

// TestSlabRowsSurviveRetries: the operators carve rows from one slab per
// partition, kept in the partition's lane for the job. A join-and-expand query
// on four partitions, under a seeded schedule that kills an attempt of every
// kind of stage - leaf, join, expand hop, finalize - some of them twice,
// completes, and the schedule retries at least half the stages: thinner, it
// would not reach the slab of every kind of stage. That the rows are the
// failure-free run's, byte for byte and in order, is internal/conformance's
// random-kills mode, which draws its schedule the same way; run under -race,
// this also shows that partitions share no slab.
func TestSlabRowsSurviveRetries(t *testing.T) {
	const workers = 4
	query := `MATCH (a:Person)-[k:knows]->(b:Person), (b)-[e:knows*1..2]->(c:Person) WHERE a.i < 12 RETURN *`
	for _, morph := range []operators.Morphism{
		{Vertex: operators.Homomorphism, Edge: operators.Isomorphism},
		{Vertex: operators.Isomorphism, Edge: operators.Isomorphism},
	} {
		env := dataflow.NewEnv(dataflow.DefaultConfig(workers))
		g := ringGraph(env, 40)
		cfg := Config{Vertex: morph.Vertex, Edge: morph.Edge, Stats: stats.Collect(g)}
		metrics := func(plan *dataflow.FaultPlan) dataflow.MetricsSnapshot {
			env.ResetMetrics()
			env.InjectFaults(plan)
			if res := run(t, g, query, cfg); res.Count() == 0 {
				t.Fatal("the query must produce rows to say anything")
			}
			return env.Metrics()
		}
		m := metrics(nil)
		fm := metrics(&dataflow.FaultPlan{MaxRetries: 3 * int(m.Stages), Kills: dataflow.RandomKills(2017, 3*int(m.Stages), m.Stages, workers)})
		if fm.Retries == 0 || fm.RetriedStages < m.Stages/2 {
			t.Fatalf("%v/%v: schedule too thin: %d retries over %d of %d stages", morph.Vertex, morph.Edge, fm.Retries, fm.RetriedStages, m.Stages)
		}
	}
}
