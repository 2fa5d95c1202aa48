package core_test

import (
	"bytes"
	"sync"
	"testing"

	"gradoop/internal/benchkit"
	"gradoop/internal/core"
	"gradoop/internal/dataflow"
	"gradoop/internal/epgm"
	"gradoop/internal/operators"
)

// laneRun executes q on g's environment, under plan if there is one, and
// returns the embeddings as the wire ships them, in engine order, and the
// job's metrics.
func laneRun(t testing.TB, g *epgm.LogicalGraph, common string, q benchkit.QueryID, plan *dataflow.FaultPlan) ([]byte, dataflow.MetricsSnapshot) {
	cfg := core.Config{Vertex: operators.Homomorphism, Edge: operators.Isomorphism, Stats: core.GraphStats(g)}
	if q.Operational() {
		cfg.Params = map[string]epgm.PropertyValue{"firstName": epgm.PVString(common)}
	}
	env := g.Env()
	env.ResetMetrics()
	env.InjectFaults(plan)
	res, err := core.Execute(g, q.Text(), cfg)
	if err != nil {
		t.Errorf("%s: %v", q, err)
		return nil, dataflow.MetricsSnapshot{}
	}
	var rows []byte
	for _, e := range res.Embeddings.Collect() {
		rows = e.AppendWire(rows)
	}
	if len(rows) == 0 {
		t.Errorf("%s must produce rows to say anything", q)
	}
	return rows, env.Metrics()
}

// TestKilledPartitionIsInvisibleToTheLane: a partition's lane outlives its
// attempts, so a retried attempt finds in it what the killed one left - a
// table, a route, a slab carved some way into a chunk. Q2 and Q3 (a
// variable-length expansion whose kept table is probed hop after hop between
// joins that reuse the lane's) with partition 0 of every stage killed once
// complete, retrying at least half their stages. That they return the
// unfaulted run's rows, byte for byte and in its order, is
// internal/conformance's killed mode, which kills the same way on the paper's
// queries.
func TestKilledPartitionIsInvisibleToTheLane(t *testing.T) {
	for _, q := range []benchkit.QueryID{benchkit.Q2, benchkit.Q3} {
		g, common := goldenGraph(4)
		_, m := laneRun(t, g, common, q, nil)
		var kills []dataflow.Kill
		for stage := int64(1); stage <= m.Stages; stage++ {
			kills = append(kills, dataflow.Kill{Stage: stage, Partition: 0})
		}
		_, fm := laneRun(t, g, common, q, &dataflow.FaultPlan{Kills: kills})
		core.DropGraphStats(g)
		if fm.Retries < m.Stages/2 {
			t.Fatalf("%s: schedule too thin: %d retries over %d stages", q, fm.Retries, m.Stages)
		}
	}
}

// TestJobsOnOneEnvShareNothing: a job borrows its lanes from the process and
// gives them back (dataflow's TestLanesAreDroppedBetweenJobs looks into
// them), so jobs run one after the other on one Env, in lanes the last job
// gave back, return the rows each returns on an Env of its own.
func TestJobsOnOneEnvShareNothing(t *testing.T) {
	kept, common := goldenGraph(4)
	defer core.DropGraphStats(kept)
	for _, q := range []benchkit.QueryID{benchkit.Q3, benchkit.Q4, benchkit.Q2, benchkit.Q3} {
		fresh, _ := goldenGraph(4)
		want, _ := laneRun(t, fresh, common, q, nil)
		core.DropGraphStats(fresh)
		if got, _ := laneRun(t, kept, common, q, nil); !bytes.Equal(got, want) {
			t.Errorf("%s on an Env other jobs ran on: rows differ from a new Env's", q)
		}
	}
}

// TestConcurrentJobsShareNoLane: at most one Env holds a lane at a time. Eight
// jobs on eight Envs - every yardstick query, two of them twice - at 4 and
// at 16 partitions, run at the same time and again three rounds over, each
// round in lanes the others gave back, return what each returns alone; under
// -race a lane two jobs held at once is a reported race.
func TestConcurrentJobsShareNoLane(t *testing.T) {
	queries := []benchkit.QueryID{benchkit.Q1, benchkit.Q2, benchkit.Q3, benchkit.Q4, benchkit.Q5, benchkit.Q6, benchkit.Q3, benchkit.Q5}
	for _, workers := range []int{4, 16} {
		src, common := goldenGraph(workers)
		vs, es := src.Vertices.Collect(), src.Edges.Collect()
		graphs := make([]*epgm.LogicalGraph, len(queries))
		want := make([][]byte, len(queries))
		for i, q := range queries {
			graphs[i] = epgm.GraphFromSlices(dataflow.NewEnv(dataflow.DefaultConfig(workers)), "", vs, es)
			defer core.DropGraphStats(graphs[i])
			want[i], _ = laneRun(t, graphs[i], common, q, nil)
		}
		var wg sync.WaitGroup
		for i, q := range queries {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for round := 0; round < 3; round++ {
					if got, _ := laneRun(t, graphs[i], common, q, nil); !bytes.Equal(got, want[i]) {
						t.Errorf("%s at %d partitions next to seven other jobs: rows differ from the job alone", q, workers)
					}
				}
			}()
		}
		wg.Wait()
	}
}
