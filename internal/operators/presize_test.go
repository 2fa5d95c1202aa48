package operators

import (
	"math/bits"
	"runtime"
	"testing"

	"gradoop/internal/dataflow"
	"gradoop/internal/embedding"
)

// TestOutputIsAllocatedOnce: what a leaf and a join allocate is what they
// hand on - a one-word header and the slab bytes of every row, and the join's
// table - with a tenth on top for slab chunk tails and the stage's own few
// objects. An output partition grown by append allocates its headers 4.6
// times over (10 000 rows: 46 539 slots) and is far outside that. One
// partition, so that the join's shuffles move and allocate nothing.
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
	join := NewJoinEmbeddings(left, right, Morphism{})
	rows, got = allocated(func() *dataflow.Dataset[embedding.Embedding] { return join.Evaluate(plainRun(nil, es)) })
	if len(rows) != 100_008 {
		t.Fatalf("the join emitted %d rows, want 100 008", len(rows))
	}
	build := 3 * 11_112
	table := uint64(12*build + 4<<bits.Len(uint(2*build-1))) // keys and next per row, head per slot
	t.Logf("join: %d rows, %d bytes allocated, %d handed on and %d of table", len(rows), got, handedOn(rows), table)
	if bound := (handedOn(rows) + table) * 11 / 10; got > bound {
		t.Errorf("a join of %d rows allocated %d bytes, want at most %d", len(rows), got, bound)
	}
}
