package operators

import (
	"runtime"
	"testing"

	"gradoop/internal/cypher"
	"gradoop/internal/dataflow"
	"gradoop/internal/embedding"
	"gradoop/internal/epgm"
)

// Allocation kernels on embedding-shaped rows (make alloc-guard): each runs
// one engine step over benchRows rows on four partitions and reports heap
// allocations per input row. The hot path carves rows from per-partition
// slabs and sizes, routes and joins them without boxing, so what is left
// per step is a fixed handful per partition (slab chunks, the output
// slices, the join table's three arrays) - hundredths of an allocation per
// row. The leaf scan, the join probe and the outer join also report B/row,
// heap bytes per output row: an output partition grown by append is a handful
// of objects like one allocated once, and several times its bytes. The
// Makefile holds the thresholds.

const benchRows = 20_000

// reportAllocsPerRow runs step b.N times and reports mallocs per input row;
// it returns the heap bytes one step allocated.
func reportAllocsPerRow(b *testing.B, rows int, step func()) (bytesPerStep float64) {
	b.Helper()
	step() // warm-up: lazily built metadata is not the step's cost
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N)/float64(rows), "allocs/row")
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(b.N)
}

// benchGraph is a ring of persons with two chords each: every vertex has
// three outgoing knows edges, enough fan-out for joins and hops to emit.
func benchGraph(env *dataflow.Env, n int) (*dataflow.Dataset[epgm.Vertex], *dataflow.Dataset[epgm.Edge]) {
	vs := make([]epgm.Vertex, n)
	for i := range vs {
		vs[i] = epgm.Vertex{ID: epgm.ID(1 + i), Label: "Person", Properties: epgm.Properties{}.
			Set("firstName", epgm.PVString("Alice")).Set("birthday", epgm.PVInt(int64(1980+i%30)))}
	}
	es := make([]epgm.Edge, 0, 3*n)
	for i := range vs {
		for _, hop := range []int{1, 7, 31} {
			es = append(es, epgm.Edge{ID: epgm.ID(1_000_000 + len(es)), Label: "knows",
				Source: vs[i].ID, Target: vs[(i+hop)%n].ID,
				Properties: epgm.Properties{}.Set("since", epgm.PVInt(int64(2000+i%20)))})
		}
	}
	return dataflow.FromSlice(env, vs), dataflow.FromSlice(env, es)
}

// materialized is an operator over rows computed beforehand, so that a
// kernel measures its own step and not the leaves under it.
type materialized struct {
	rows *dataflow.Dataset[embedding.Embedding]
	meta *embedding.Meta
	// selective is what the operator says of itself to a join over it.
	selective bool
}

func materialize(op Operator) materialized { return materialized{rows: op.Evaluate(), meta: op.Meta()} }

func (m materialized) Evaluate() *dataflow.Dataset[embedding.Embedding] { return m.rows }
func (m materialized) Meta() *embedding.Meta                            { return m.meta }
func (m materialized) Description() string                              { return "materialized" }
func (m materialized) Children() []Operator                             { return nil }
func (m materialized) Selective() bool                                  { return m.selective }

func knowsEdge(v, src, tgt string) *cypher.QueryEdge {
	return &cypher.QueryEdge{Var: v, Types: []string{"knows"}, Source: src, Target: tgt,
		MinHops: 1, MaxHops: 1, Projection: []string{"since"}}
}

func BenchmarkRowLeafScan(b *testing.B) {
	env := dataflow.NewEnv(dataflow.DefaultConfig(4))
	vs, es := benchGraph(env, benchRows/4)
	vertices := NewFilterAndProjectVertices(epgm.PlainScan(vs), &cypher.QueryVertex{Var: "a", Labels: []string{"Person"},
		Projection: []string{"firstName", "birthday"}})
	edges := NewFilterAndProjectEdges(epgm.PlainScan(es), knowsEdge("e", "a", "b"))
	// Every element makes one row, so rows out are rows in.
	bytes := reportAllocsPerRow(b, benchRows, func() {
		vertices.Evaluate()
		edges.Evaluate()
	})
	b.ReportMetric(bytes/benchRows, "B/row")
}

func BenchmarkRowMerge(b *testing.B) {
	env := dataflow.NewEnv(dataflow.DefaultConfig(1))
	_, es := benchGraph(env, benchRows/3)
	rows := NewFilterAndProjectEdges(epgm.PlainScan(es), knowsEdge("e", "a", "b")).Evaluate().Collect()
	drop := []int{0}
	reportAllocsPerRow(b, len(rows), func() {
		var slab embedding.Slab
		cols := 0
		for i := 1; i < len(rows); i++ {
			cols += slab.Merge(rows[i-1], rows[i], drop).Columns()
		}
		if cols != 5*(len(rows)-1) {
			b.Fatal("wrong merge")
		}
	})
}

func BenchmarkRowShuffle(b *testing.B) {
	env := dataflow.NewEnv(dataflow.DefaultConfig(4))
	_, es := benchGraph(env, benchRows/3)
	rows := NewFilterAndProjectEdges(epgm.PlainScan(es), knowsEdge("e", "a", "b")).Evaluate()
	target := []int{2}
	reportAllocsPerRow(b, benchRows, func() {
		dataflow.PartitionByKey(rows, func(e embedding.Embedding) uint64 { return keyOf(e, target) })
	})
}

// BenchmarkRowJoinProbe is a repartition join of two edge scans on the
// shared middle vertex under full isomorphism: both inputs are shuffled,
// every candidate pair has its keys and morphism checked on the inputs, and
// only the survivors are merged.
func BenchmarkRowJoinProbe(b *testing.B) {
	env := dataflow.NewEnv(dataflow.DefaultConfig(4))
	_, es := benchGraph(env, benchRows/6)
	left := materialize(NewFilterAndProjectEdges(epgm.PlainScan(es), knowsEdge("e1", "a", "b")))
	right := materialize(NewFilterAndProjectEdges(epgm.PlainScan(es), knowsEdge("e2", "b", "c")))
	join := NewJoinEmbeddings(left, right, Morphism{Vertex: Isomorphism, Edge: Isomorphism})
	var joined int64
	bytes := reportAllocsPerRow(b, benchRows, func() {
		if joined = join.Evaluate().Count(); joined == 0 {
			b.Fatal("join emitted nothing")
		}
	})
	b.ReportMetric(bytes/float64(joined), "B/row")
}

// BenchmarkRowProbeInPlace is a join that broadcasts its selective side - 64
// persons - into the scan of the knows edges of a pinned store: a count, a
// broadcast and one probe of benchRows edges, of which the 192 that leave one
// of the 64 get a row and are merged. The scan builds nothing for the others,
// so what a step allocates is the four tables over the 64 rows, the slab
// chunks of the 192 and the stages' own objects. Rows are the elements
// scanned, for allocs/row and for B/row alike: heap bytes per scanned edge,
// where the leaf scan that the join replaces pays B/row for every one of them.
func BenchmarkRowProbeInPlace(b *testing.B) {
	env := dataflow.NewEnv(dataflow.DefaultConfig(4))
	vs, es := benchGraph(env, benchRows/3)
	idx := epgm.NewStore(epgm.GraphFromSlices(env, "", vs.Collect(), es.Collect())).Index(env)
	persons := NewFilterAndProjectVertices(idx.Vertices("Person"), &cypher.QueryVertex{Var: "a", Labels: []string{"Person"},
		Projection: []string{"firstName", "birthday"}})
	small := materialized{rows: dataflow.FromSlice(env, persons.Evaluate().Collect()[:64]), meta: persons.Meta(), selective: true}
	knows := NewFilterAndProjectEdges(idx.Edges("knows"), knowsEdge("e", "a", "b"))
	join := NewJoinEmbeddings(small, knows, Morphism{Vertex: Isomorphism, Edge: Isomorphism})
	scanned := int(knows.scanned())
	env.ResetMetrics()
	bytes := reportAllocsPerRow(b, scanned, func() {
		if out := join.Evaluate().Count(); out != 3*64 {
			b.Fatalf("join emitted %d rows", out)
		}
	})
	if stages := env.Metrics().Stages; stages%3 != 0 {
		b.Fatalf("%d stages: a step is not a count, a broadcast and a join", stages)
	}
	b.ReportMetric(bytes/float64(scanned), "B/row")
}

// BenchmarkRowOuterJoin is an OPTIONAL MATCH of every person's knows edges
// where the second half of the persons has none: both inputs are shuffled,
// 15 000 pairs are checked and merged and 5 000 mandatory rows come out
// NULL-padded, all carved from the lane's slab into a partition allocated
// once.
func BenchmarkRowOuterJoin(b *testing.B) {
	env := dataflow.NewEnv(dataflow.DefaultConfig(4))
	vs, _ := benchGraph(env, benchRows/2)
	_, es := benchGraph(env, benchRows/4)
	left := materialize(NewFilterAndProjectVertices(epgm.PlainScan(vs), &cypher.QueryVertex{Var: "a", Labels: []string{"Person"},
		Projection: []string{"firstName", "birthday"}}))
	right := materialize(NewFilterAndProjectEdges(epgm.PlainScan(es), knowsEdge("e", "a", "b")))
	outer := NewOptionalJoinEmbeddings(left, right, Morphism{Vertex: Isomorphism, Edge: Isomorphism}, nil)
	in := int(left.rows.Count() + right.rows.Count())
	var out int64
	bytes := reportAllocsPerRow(b, in, func() {
		if out = outer.Evaluate().Count(); out != benchRows {
			b.Fatalf("outer join emitted %d rows", out)
		}
	})
	b.ReportMetric(bytes/float64(out), "B/row")
}

// BenchmarkRowSemiJoin is an uncorrelated exists(): 10 000 persons, each asked
// whether any of 15 000 knows edges between two other persons exists. No
// variable is shared, so every row hashes to one key and the whole edge side
// is every person's chain - of which the first edge that passes the morphism
// check decides the row. Walked to its end per person the same step is 150
// million pairs, so its ns/op is the number to watch; its allocations are the
// probe rows' partition and the table.
func BenchmarkRowSemiJoin(b *testing.B) {
	env := dataflow.NewEnv(dataflow.DefaultConfig(4))
	vs, _ := benchGraph(env, benchRows/2)
	_, es := benchGraph(env, benchRows/4)
	left := materialize(NewFilterAndProjectVertices(epgm.PlainScan(vs), &cypher.QueryVertex{Var: "a", Labels: []string{"Person"},
		Projection: []string{"firstName", "birthday"}}))
	right := materialize(NewFilterAndProjectEdges(epgm.PlainScan(es), knowsEdge("e", "x", "y")))
	semi := NewSemiJoinEmbeddings(left, right, Morphism{Vertex: Isomorphism, Edge: Isomorphism}, false)
	in := int(left.rows.Count() + right.rows.Count())
	reportAllocsPerRow(b, in, func() {
		if out := semi.Evaluate().Count(); out != benchRows/2 {
			b.Fatalf("semi join kept %d rows", out)
		}
	})
}

// BenchmarkRowExpandHop is one hop of a variable-length expansion: select
// the triples, seed the working set, join the two on the frontier vertex,
// finalize the paths into rows.
func BenchmarkRowExpandHop(b *testing.B) {
	env := dataflow.NewEnv(dataflow.DefaultConfig(4))
	vs, es := benchGraph(env, benchRows/4)
	in := materialize(NewFilterAndProjectVertices(epgm.PlainScan(vs), &cypher.QueryVertex{Var: "a", Labels: []string{"Person"}}))
	qe := &cypher.QueryEdge{Var: "p", Types: []string{"knows"}, Source: "a", Target: "b", MinHops: 1, MaxHops: 1}
	expand, err := NewExpandEmbeddings(in, es, qe, Morphism{Vertex: Isomorphism, Edge: Isomorphism}, false)
	if err != nil {
		b.Fatal(err)
	}
	reportAllocsPerRow(b, benchRows, func() {
		if expand.Evaluate().Count() == 0 {
			b.Fatal("expansion emitted nothing")
		}
	})
}

// BenchmarkRowExpandLoop is a whole variable-length expansion over benchRows
// triples from a working set of 64 paths, run to two hops and to six. The
// edge side is shuffled and hashed once per expansion, so what a further hop
// allocates is the working set's share only - 64 paths through a shuffle, a
// probe and a finalize, a few tens of KiB with their slab chunks - where a
// triple side paid again would add about a megabyte (20 000 triples routed,
// placed and hashed). The kernel fails if a hop beyond the second costs more
// than maxHopBytes; allocs/row is over the six-hop run.
func BenchmarkRowExpandLoop(b *testing.B) {
	const maxHopBytes = 128 << 10
	measure := func(hops int) (bytesPerOp, mallocsPerOp float64) {
		env := dataflow.NewEnv(dataflow.DefaultConfig(4))
		expand := ringExpand(b, env, benchRows, 64, 1, hops)
		step := func() {
			if expand.Evaluate().Count() != int64(64*hops) {
				b.Fatal("wrong expansion")
			}
		}
		step() // warm-up: lazily built metadata is not the step's cost
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < b.N; i++ {
			step()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(b.N), float64(after.Mallocs-before.Mallocs) / float64(b.N)
	}
	two, _ := measure(2)
	six, mallocs := measure(6)
	b.ReportMetric(two/2, "B/hop-H2")
	b.ReportMetric(six/6, "B/hop-H6")
	b.ReportMetric(mallocs/benchRows, "allocs/row")
	if perHop := (six - two) / 4; perHop > maxHopBytes {
		b.Fatalf("a hop beyond the second allocates %.0f bytes, more than the working set's share (%d): the triple side is paid per hop", perHop, maxHopBytes)
	}
}
