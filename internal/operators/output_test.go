package operators

import (
	"runtime"
	"testing"

	"gradoop/internal/dataflow"
	"gradoop/internal/embedding"
)

// TestOutputIsAllocatedOnce: what a leaf and a join allocate is what they
// hand on - a one-word header and the slab bytes of every row - with a tenth
// on top for slab chunk tails and the stage's own few objects. The rows are
// staged in the lane and published at exactly their number; the staging
// buffer and the join's table are the lane's, grown by the warm-up step. An
// output partition grown by append allocates its headers 4.6 times over
// (10 000 rows: 46 539 slots) and is far outside that, and so is a join that
// allocates its table (a ninth of its rows' bytes here). One partition, so
// that the join's shuffles move and allocate nothing.
func TestOutputIsAllocatedOnce(t *testing.T) {
	const rowHeader = 8
	env := dataflow.NewEnv(dataflow.DefaultConfig(1))
	allocated := func(step func() *dataflow.Dataset[embedding.Embedding]) (rows []embedding.Embedding, bytes uint64) {
		step() // warm-up: lazily built metadata is not the step's cost
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out := step()
		runtime.ReadMemStats(&after)
		if err := env.Err(); err != nil {
			t.Fatal(err)
		}
		return out.Partition(0), after.TotalAlloc - before.TotalAlloc
	}
	// handedOn is the headers plus the rows, all of one length.
	handedOn := func(rows []embedding.Embedding) uint64 {
		return uint64(len(rows) * (rowHeader + rows[0].WireSize())) // a row in the slab is its wire form
	}

	_, es := benchGraph(env, 33_334)
	leaf := NewFilterAndProjectEdges(knowsEdge("e", "a", "b"))
	rows, got := allocated(func() *dataflow.Dataset[embedding.Embedding] { return leaf.Evaluate(plainRun(nil, es)) })
	if len(rows) != 100_002 {
		t.Fatalf("the leaf emitted %d rows, want 100 002", len(rows))
	}
	t.Logf("leaf: %d rows, %d bytes allocated, %d handed on", len(rows), got, handedOn(rows))
	if bound := handedOn(rows) * 11 / 10; got > bound {
		t.Errorf("a predicate-free leaf of %d rows allocated %d bytes, want at most %d", len(rows), got, bound)
	}

	// Three edges into every vertex and three out of it: nine pairs a vertex.
	_, es = benchGraph(env, 11_112)
	left := materialize(NewFilterAndProjectEdges(knowsEdge("e1", "a", "b")), plainRun(nil, es))
	right := materialize(NewFilterAndProjectEdges(knowsEdge("e2", "b", "c")), plainRun(nil, es))
	join := NewJoinEmbeddings(left, right, Morphism{}, nil)
	rows, got = allocated(func() *dataflow.Dataset[embedding.Embedding] { return join.Evaluate(plainRun(nil, es)) })
	if len(rows) != 100_008 {
		t.Fatalf("the join emitted %d rows, want 100 008", len(rows))
	}
	t.Logf("join: %d rows, %d bytes allocated, %d handed on", len(rows), got, handedOn(rows))
	if bound := handedOn(rows) * 11 / 10; got > bound {
		t.Errorf("a join of %d rows allocated %d bytes, want at most %d", len(rows), got, bound)
	}
}
