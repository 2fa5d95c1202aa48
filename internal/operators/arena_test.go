package operators

import (
	"fmt"
	"testing"

	"gradoop/internal/dataflow"
)

// laneUsage sums, over the lanes of env's partitions, what their slabs have
// allocated in chunks and what they have carved from them. It asks in a stage
// of its own: a lane is reached from the attempt it is handed to and from
// nowhere else.
func laneUsage(t *testing.T, env *dataflow.Env) (made, carved int) {
	t.Helper()
	parts := make([][]int, env.Workers())
	for p := range parts {
		parts[p] = []int{p}
	}
	usage := dataflow.FlatMapWith(dataflow.FromPartitions(env, parts), func(lane *dataflow.Lane) func(int, func([2]int)) {
		sc := scratchOf(lane)
		return func(_ int, emit func([2]int)) {
			m, c := sc.slab.Usage()
			emit([2]int{m, c})
		}
	}, 1).Collect()
	if err := env.Err(); err != nil {
		t.Fatal(err)
	}
	if len(usage) != env.Workers() {
		t.Fatalf("%d lanes answered for %d partitions", len(usage), env.Workers())
	}
	for _, u := range usage {
		made, carved = made+u[0], carved+u[1]
	}
	return made, carved
}

// TestArenaTailIsBounded: what a job's partitions allocate for rows and via
// lists and never use does not grow with the stages, attempts or bytes of the
// job. A lane's slab has two arenas, rows and via lists, each with one open
// chunk of at most 64 KiB (embedding's maxChunk), and abandons a chunk only
// with less than one run left in it - under a sixty-fourth of a 64 KiB chunk
// for the runs here, all well under 1 KiB; nothing here is past the 16 KiB
// beyond which a run keeps an allocation of its own and counts for neither
// side. So over a ten-hop expansion and a five-join plan, each run four times
// over on one Env, at 4 and 16 partitions:
//
//	allocated <= carved + 2 x P x 64 KiB + carved/64
//
// A slab per partition attempt breaks it several times over: every attempt
// leaves the tail of its last chunk, half a chunk on average.
func TestArenaTailIsBounded(t *testing.T) {
	const maxChunk = 64 << 10
	plans := map[string]func(env *dataflow.Env) (Operator, GraphAccess){
		"ten-hop expansion": func(env *dataflow.Env) (Operator, GraphAccess) { return ringExpand(t, env, 6000, 6000, 1, 10) },
		"five joins": func(env *dataflow.Env) (Operator, GraphAccess) {
			_, es := benchGraph(env, 60)
			vars := []string{"a", "b", "c", "d", "e", "f", "g"}
			var plan Operator = NewFilterAndProjectEdges(knowsEdge("e0", vars[0], vars[1]))
			for i := 1; i <= 5; i++ {
				next := NewFilterAndProjectEdges(knowsEdge(fmt.Sprint("e", i), vars[i], vars[i+1]))
				plan = NewJoinEmbeddings(plan, next, Morphism{}, nil)
			}
			return plan, plainAccess{es: es}
		},
	}
	for name, plan := range plans {
		for _, workers := range []int{4, 16} {
			env := dataflow.NewEnv(dataflow.DefaultConfig(workers))
			op, access := plan(env)
			var rows int64
			for run := 0; run < 4; run++ {
				rows += op.Evaluate(NewRun(access, nil)).Count()
			}
			made, carved := laneUsage(t, env)
			stages := env.Metrics().Stages
			bound := carved + 2*workers*maxChunk + carved/64
			t.Logf("%s, %d partitions: %d rows out of %d stages, %d KiB allocated for %d KiB carved (bound %d KiB)",
				name, workers, rows, stages, made>>10, carved>>10, bound>>10)
			if rows == 0 || carved < 32*workers*maxChunk {
				t.Fatalf("%s, %d partitions: %d rows, %d bytes carved: too little to say anything", name, workers, rows, carved)
			}
			if made > bound {
				t.Errorf("%s, %d partitions: the lanes allocated %d bytes for %d carved, %d over the bound: the unused tail grows with the job",
					name, workers, made, carved, made-bound)
			}
		}
	}
}
