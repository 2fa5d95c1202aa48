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
// return the unfaulted run's rows, byte for byte and in its order.
func TestKilledPartitionIsInvisibleToTheLane(t *testing.T) {
	for _, q := range []benchkit.QueryID{benchkit.Q2, benchkit.Q3} {
		g, common := goldenGraph(4)
		want, m := laneRun(t, g, common, q, nil)
		var kills []dataflow.Kill
		for stage := int64(1); stage <= m.Stages; stage++ {
			kills = append(kills, dataflow.Kill{Stage: stage, Partition: 0})
		}
		got, fm := laneRun(t, g, common, q, &dataflow.FaultPlan{Kills: kills})
		core.DropGraphStats(g)
		if fm.Retries < m.Stages/2 {
			t.Fatalf("%s: schedule too thin: %d retries over %d stages", q, fm.Retries, m.Stages)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: rows after %d retries differ from the unfaulted run's", q, fm.Retries)
		}
	}
}

// TestJobsOnOneEnvShareNothing: an Env kept between jobs starts every job on
// empty lanes (dataflow's TestLanesAreDroppedBetweenJobs looks into them), so
// jobs run one after the other on one Env return the rows each returns on an
// Env of its own.
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

// TestConcurrentJobsShareNoLane: lanes never cross Envs. Two jobs on two Envs
// at 16 partitions, run at the same time - under -race - return what each
// returns alone.
func TestConcurrentJobsShareNoLane(t *testing.T) {
	queries := []benchkit.QueryID{benchkit.Q3, benchkit.Q5}
	graphs := make([]*epgm.LogicalGraph, len(queries))
	want := make([][]byte, len(queries))
	var common string
	for i, q := range queries {
		graphs[i], common = goldenGraph(16)
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
					t.Errorf("%s next to another job: rows differ from the job alone", q)
				}
			}
		}()
	}
	wg.Wait()
}
