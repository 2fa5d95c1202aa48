package operators

import (
	"fmt"
	"testing"

	"gradoop/internal/cypher"
	"gradoop/internal/dataflow"
	"gradoop/internal/epgm"
)

// laneUsage sums, over the lanes of env's partitions, what their slabs have
// allocated in chunks and what they have carved from them, over every job
// that worked in them. It asks in a stage of its own - a lane is reached from
// the attempt it is handed to and from nowhere else - and ends env's job, so
// the lanes go back for the next.
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
	}).Collect()
	if err := env.Finish(); err != nil {
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
// lists and never use does not grow with the stages, attempts, bytes or jobs
// that worked in the lanes. A lane's slab has two arenas, rows and via lists,
// each with one open chunk of at most 64 KiB (embedding's maxChunk), which it
// keeps when its job gives the lane back and the next job carves on from, and
// abandons a chunk only with less than one run left in it - under a
// sixty-fourth of a 64 KiB chunk for the runs here, all well under 1 KiB;
// nothing here is past the 16 KiB beyond which a run keeps an allocation of
// its own and counts for neither side. So over a ten-hop expansion and a
// five-join plan, each run four times over, every time on a new Env that
// borrows the lanes the last one gave back at Finish, at 4 and 16 partitions:
//
//	allocated <= carved + 2 x P x 64 KiB + carved/64
//
// A slab per partition attempt breaks it several times over, and so does a
// slab per job: every attempt or job leaves the tail of its last chunk, half
// a chunk on average.
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
			var rows, stages int64
			madeBefore, carvedBefore := laneUsage(t, dataflow.NewEnv(dataflow.DefaultConfig(workers)))
			for run := 0; run < 4; run++ {
				env := dataflow.NewEnv(dataflow.DefaultConfig(workers))
				op, access := plan(env)
				rows += op.Evaluate(NewRun(access, nil)).Count()
				stages += env.Metrics().Stages
				if err := env.Finish(); err != nil {
					t.Fatal(err)
				}
			}
			made, carved := laneUsage(t, dataflow.NewEnv(dataflow.DefaultConfig(workers)))
			made, carved = made-madeBefore, carved-carvedBefore
			bound := carved + 2*workers*maxChunk + carved/64
			t.Logf("%s, %d partitions: %d rows out of %d stages, %d KiB allocated for %d KiB carved (bound %d KiB)",
				name, workers, rows, stages, made>>10, carved>>10, bound>>10)
			if rows == 0 || carved < 32*workers*maxChunk {
				t.Fatalf("%s, %d partitions: %d rows, %d bytes carved: too little to say anything", name, workers, rows, carved)
			}
			if made > bound {
				t.Errorf("%s, %d partitions: the lanes allocated %d bytes for %d carved, %d over the bound: the unused tail grows with the jobs",
					name, workers, made, carved, made-bound)
			}
		}
	}
}

// TestGivenBackScratchHoldsNoValue: a lane's scratch outlives its job, but
// keeps no value of the job's graph once the job gives the lane back: the
// values a leaf projected (props) and the adjacency positions a walk was at
// (frames) are dropped by Release, their capacity kept. The next job's stage
// looks into the lanes it borrows.
func TestGivenBackScratchHoldsNoValue(t *testing.T) {
	const workers = 4
	env := dataflow.NewEnv(dataflow.DefaultConfig(workers))
	vs, es := benchGraph(env, 400)
	idx := epgm.NewStore(epgm.GraphFromSlices(env, "", vs.Collect(), es.Collect())).Index(env)
	leaf := NewFilterAndProjectVertices(&cypher.QueryVertex{Var: "a", Labels: []string{"Person"},
		Projection: []string{"firstName", "birthday"}})
	qe := &cypher.QueryEdge{Var: "p", Types: []string{"knows"}, Source: "a", Target: "b", MinHops: 1, MaxHops: 3}
	expand, err := NewExpandEmbeddings(leaf, qe, Morphism{Vertex: Isomorphism, Edge: Isomorphism}, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := expand.Evaluate(indexedRun(idx)).Count()
	if err := env.Finish(); err != nil || rows == 0 {
		t.Fatalf("the job wrote %d rows: %v", rows, err)
	}

	type seen struct{ props, values, frames, positions int }
	next := dataflow.NewEnv(dataflow.DefaultConfig(workers))
	parts := make([][]int, workers)
	for p := range parts {
		parts[p] = []int{p}
	}
	var sum seen
	for _, s := range dataflow.FlatMapWith(dataflow.FromPartitions(next, parts), func(lane *dataflow.Lane) func(int, func(seen)) {
		sc := scratchOf(lane)
		return func(_ int, emit func(seen)) {
			s := seen{props: cap(sc.props), frames: cap(sc.frames)}
			for _, v := range sc.props[:cap(sc.props)] {
				if v != (epgm.PropertyValue{}) {
					s.values++
				}
			}
			for _, f := range sc.frames[:cap(sc.frames)] {
				if f.pos != nil {
					s.positions++
				}
			}
			emit(s)
		}
	}).Collect() {
		sum.props, sum.values = sum.props+s.props, sum.values+s.values
		sum.frames, sum.positions = sum.frames+s.frames, sum.positions+s.positions
	}
	if err := next.Finish(); err != nil {
		t.Fatal(err)
	}
	if sum.props < workers || sum.frames < workers {
		t.Fatalf("the lanes borrowed keep room for %d values and %d frames: not the job's, the test checks nothing", sum.props, sum.frames)
	}
	if sum.values > 0 || sum.positions > 0 {
		t.Errorf("lanes given back hold %d projected values and %d adjacency positions of the last job", sum.values, sum.positions)
	}
}
