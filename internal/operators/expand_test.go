package operators

import (
	"errors"
	"reflect"
	"testing"

	"gradoop/internal/cypher"
	"gradoop/internal/dataflow"
	"gradoop/internal/embedding"
	"gradoop/internal/epgm"
	"gradoop/internal/govern"
	"gradoop/internal/trace"
)

// ringExpand is a *minHops..maxHops expansion from the first starts vertices
// of a ring of n persons, every vertex knowing only its successor: one path
// per start and hop, so the working set never drains before maxHops and the
// edge side (n triples) outweighs everything the hops produce. It returns the
// expansion and the ring as a run reads it.
func ringExpand(t testing.TB, env *dataflow.Env, n, starts, minHops, maxHops int) (*ExpandEmbeddings, GraphAccess) {
	t.Helper()
	vs := make([]epgm.Vertex, starts)
	for i := range vs {
		vs[i] = epgm.Vertex{ID: epgm.ID(1 + i), Label: "Person"}
	}
	es := make([]epgm.Edge, n)
	for i := range es {
		es[i] = epgm.Edge{ID: epgm.ID(1_000_000 + i), Label: "knows", Source: epgm.ID(1 + i), Target: epgm.ID(1 + (i+1)%n)}
	}
	in := NewFilterAndProjectVertices(&cypher.QueryVertex{Var: "a"})
	qe := &cypher.QueryEdge{Var: "p", Types: []string{"knows"}, Source: "a", Target: "b", MinHops: minHops, MaxHops: maxHops}
	op, err := NewExpandEmbeddings(in, qe, Morphism{Vertex: Isomorphism, Edge: Isomorphism}, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	return op, plainAccess{dataflow.FromSlice(env, vs), dataflow.FromSlice(env, es)}
}

func rowBytes(rows []embedding.Embedding) [][]byte {
	out := make([][]byte, len(rows))
	for i, e := range rows {
		out[i] = e.AppendWire(nil)
	}
	return out
}

// TestExpandShufflesAndBuildsOnce pins what an expansion of H hops costs in
// stages: the edge side is shuffled and hashed once, every hop shuffles its
// working set and probes - 1 + H shuffles, one Build, H Probes and, however
// many hops contribute, one Union. The trace tags the build with iteration 0
// and every probe with its hop, all of them under the ExpandEmbeddings node.
func TestExpandShufflesAndBuildsOnce(t *testing.T) {
	for _, tc := range []struct{ ring, starts, maxHops, ran, rows int }{
		{ring: 64, starts: 4, maxHops: 1, ran: 1, rows: 4},
		{ring: 64, starts: 4, maxHops: 3, ran: 3, rows: 12},
		{ring: 64, starts: 4, maxHops: 10, ran: 10, rows: 40},
		// Under vertex isomorphism a path around a ring of three dies when it
		// would come back: two hops find rows, the third finds the set empty.
		{ring: 3, starts: 3, maxHops: 10, ran: 3, rows: 6},
	} {
		for _, workers := range []int{1, 4} {
			env := dataflow.NewEnv(dataflow.DefaultConfig(workers))
			col := trace.NewCollector()
			env.SetTracer(col)
			op, ring := ringExpand(t, env, tc.ring, tc.starts, 1, tc.maxHops)
			rows := op.Evaluate(NewRun(ring, nil)).Count()
			if err := env.Finish(); err != nil {
				t.Fatal(err)
			}
			if rows != int64(tc.rows) {
				t.Fatalf("%+v, %d workers: %d rows", tc, workers, rows)
			}
			if m := env.Metrics(); m.Shuffles != int64(1+tc.ran) {
				t.Errorf("%+v, %d workers: %d shuffles, want %d", tc, workers, m.Shuffles, 1+tc.ran)
			}
			kinds := map[string]int{}
			probeHop := 0
			for _, s := range col.Spans() {
				kinds[s.Kind]++
				// Stage 1 is the input's leaf scan; the rest is the expansion's.
				if s.Stage > 1 && s.Op != op.Description() {
					t.Errorf("stage %d (%s) attributed to %q, want the ExpandEmbeddings node", s.Stage, s.Kind, s.Op)
				}
				switch s.Kind {
				case "Build":
					if s.Iteration != 0 {
						t.Errorf("build stage tagged with iteration %d, want 0", s.Iteration)
					}
				case "Probe":
					probeHop++
					if s.Iteration != probeHop {
						t.Errorf("probe %d tagged with iteration %d", probeHop, s.Iteration)
					}
				}
			}
			if kinds["Build"] != 1 || kinds["Probe"] != tc.ran || kinds["Union"] != 1 || kinds["Join"] != 0 {
				t.Errorf("%+v, %d workers: stage kinds %v, want 1 Build, %d Probe, 1 Union", tc, workers, kinds, tc.ran)
			}
			st, ok := col.Op(op)
			if !ok || len(st.Stages) != int(env.Metrics().Stages)-1 {
				t.Errorf("EXPLAIN ANALYZE sees %d stages under the expansion, want all %d but the leaf scan",
					len(st.Stages), env.Metrics().Stages)
			}
			tagged := 0
			for _, ev := range col.ChromeTrace().TraceEvents {
				if ev.Cat == "stage" && ev.Args["kind"] == "Probe" {
					tagged++
					if ev.Args["iteration"] != tagged {
						t.Errorf("trace export: probe %d carries iteration %v", tagged, ev.Args["iteration"])
					}
				}
				if ev.Cat == "stage" && ev.Args["kind"] == "Build" && ev.Args["iteration"] != nil {
					t.Errorf("trace export: build stage carries iteration %v", ev.Args["iteration"])
				}
			}
		}
	}
}

// TestExpandRecoversBuildAndProbe kills the build stage's attempt on one
// partition and, separately, the third hop's probe attempt: the rows are the
// fault-free run's, bytes and order, and exactly the killed stage is retried.
func TestExpandRecoversBuildAndProbe(t *testing.T) {
	run := func(plan *dataflow.FaultPlan) ([][]byte, []trace.Span, dataflow.MetricsSnapshot) {
		cfg := dataflow.DefaultConfig(4)
		cfg.FaultPlan = plan
		env := dataflow.NewEnv(cfg)
		col := trace.NewCollector()
		env.SetTracer(col)
		op, ring := ringExpand(t, env, 64, 16, 0, 5)
		rows := op.Evaluate(NewRun(ring, nil)).Collect()
		if err := env.Finish(); err != nil {
			t.Fatal(err)
		}
		return rowBytes(rows), col.Spans(), env.Metrics()
	}
	want, spans, clean := run(nil)
	// Sixteen starts, five hops; the zero-hop row binds a vertex twice and
	// vertex isomorphism drops it.
	if len(want) != 16*5 || clean.Retries != 0 {
		t.Fatalf("fault-free run: %d rows, %d retries", len(want), clean.Retries)
	}
	for _, s := range spans {
		if s.Kind != "Build" && !(s.Kind == "Probe" && s.Iteration == 3) {
			continue
		}
		got, killed, m := run(&dataflow.FaultPlan{Kills: []dataflow.Kill{{Stage: s.Stage, Partition: 2}}})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s at stage %d killed: rows differ from the fault-free run", s.Kind, s.Stage)
		}
		if m.Retries != 1 || m.RetriedStages != 1 {
			t.Errorf("%s at stage %d killed: %d retries over %d stages, want 1 over 1", s.Kind, s.Stage, m.Retries, m.RetriedStages)
		}
		for _, k := range killed {
			if hit := k.Stage == s.Stage; (k.Retries() == 1) != hit || (hit && k.Kind != s.Kind) {
				t.Errorf("stage %d (%s): %d retries; the kill was for the %s at stage %d", k.Stage, k.Kind, k.Retries(), s.Kind, s.Stage)
			}
		}
	}
}

// TestGovernedExpandReservesWhatItHolds: a job's reservation only grows, so
// what an expansion charges per hop it is billed for H times over. The edge
// side - its shuffled partitions and the table built on them - is held once
// and must be reserved once: ten hops over 20 000 triples fit a budget of
// twice the one-hop footprint. (When every hop shuffled and hashed the
// triples again, and every union re-charged the results so far, the same
// query reserved about five times that and died with ErrMemoryBudget.)
func TestGovernedExpandReservesWhatItHolds(t *testing.T) {
	const triples, starts, hops = 20_000, 4, 10
	governed := func(budget int64, maxHops int) (int64, int64, error) {
		env := dataflow.NewEnv(dataflow.DefaultConfig(4))
		broker := govern.NewBroker(budget, govern.ShedSelf)
		res := broker.Begin("expand")
		defer res.Release()
		env.SetGovernor(res)
		op, ring := ringExpand(t, env, triples, starts, 1, maxHops)
		rows := op.Evaluate(NewRun(ring, nil)).Count()
		return rows, res.Used(), env.Finish()
	}
	rows, oneHop, err := governed(1<<40, 1)
	if err != nil || rows != starts {
		t.Fatalf("one hop: %d rows, %v", rows, err)
	}
	// The triples three times over - selected, shuffled, hashed - and a little
	// for four paths.
	if oneHop < 3*24*triples || oneHop > 3*24*triples+4096 {
		t.Fatalf("one hop reserves %d bytes, want just over %d", oneHop, 3*24*triples)
	}
	rows, tenHops, err := governed(2*oneHop, hops)
	if err != nil {
		if errors.Is(err, govern.ErrMemoryBudget) {
			t.Fatalf("ten hops do not fit twice the one-hop footprint (%d bytes): %v", 2*oneHop, err)
		}
		t.Fatal(err)
	}
	if rows != starts*hops {
		t.Fatalf("ten hops: %d rows, want %d", rows, starts*hops)
	}
	// What the nine further hops add is their paths, not the edge side again.
	if perHop := (tenHops - oneHop) / (hops - 1); perHop > 4096 {
		t.Errorf("ten hops reserve %d bytes, one hop %d: %d more per hop, want the working set's few hundred", tenHops, oneHop, perHop)
	}
	const pinned = 1_456_136
	if tenHops != pinned {
		t.Errorf("ten hops reserve %d bytes, pinned at %d", tenHops, pinned)
	}
}
