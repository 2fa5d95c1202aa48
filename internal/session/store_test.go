package session

import (
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"testing"

	"gradoop/internal/benchkit"
	"gradoop/internal/core"
	"gradoop/internal/dataflow"
	"gradoop/internal/epgm"
	"gradoop/internal/ldbc"
	"gradoop/internal/operators"
	"gradoop/internal/stats"
	csvstore "gradoop/internal/storage/csv"
)

// ldbcGraph is the LDBC test graph: sixteen labels, the two-label
// Comment|Post scans of the yardstick's queries.
func ldbcGraph(tb testing.TB, sf float64) *epgm.LogicalGraph {
	tb.Helper()
	return ldbc.Generate(dataflow.NewEnv(dataflow.DefaultConfig(4)), ldbc.Config{ScaleFactor: sf, Seed: 2017}).Graph
}

// aliases fails unless ds is, partition by partition, FromSlice's chunking of
// want itself: the same backing array, not a copy of it.
func aliases[T any](t *testing.T, what string, ds *dataflow.Dataset[T], want []T) {
	t.Helper()
	w, n := ds.Partitions(), len(want)
	for p := 0; p < w; p++ {
		part, lo, hi := ds.Partition(p), p*n/w, (p+1)*n/w
		if len(part) != hi-lo {
			t.Fatalf("%s: partition %d holds %d elements, want %d", what, p, len(part), hi-lo)
		}
		if len(part) > 0 && &part[0] != &want[lo] {
			t.Fatalf("%s: partition %d is a copy, want the pinned array at %d", what, p, lo)
		}
	}
}

// TestLabeledReadAliasesPinnedArray: what a leaf reads for one label is that
// label's range of the one pinned array, for two labels the two ranges one
// after the other, and what it reads for none is the array.
func TestLabeledReadAliasesPinnedArray(t *testing.T) {
	data := NewGraphData(ldbcGraph(t, 0.05))
	g, access := data.Bind(dataflow.NewEnv(dataflow.DefaultConfig(4)))
	if len(data.VertexRanges)+len(data.EdgeRanges) != 16 {
		t.Fatalf("test graph has %d vertex and %d edge labels, want the LDBC schema's sixteen", len(data.VertexRanges), len(data.EdgeRanges))
	}
	for _, r := range data.VertexRanges {
		aliases(t, "vertices of "+r.Label, access.Vertices([]string{r.Label}).Union(), data.Vertices[r.Lo:r.Hi])
	}
	for _, r := range data.EdgeRanges {
		aliases(t, "edges of "+r.Label, access.Edges([]string{r.Label}).Union(), data.Edges[r.Lo:r.Hi])
	}
	messages := access.Vertices([]string{"Post", "Comment"})
	if len(messages.Parts) != 2 {
		t.Fatalf("a two-label scan has %d parts, want one per label", len(messages.Parts))
	}
	for i, r := range []epgm.LabelRange{data.VertexRanges[labelAt(t, data, "Post")], data.VertexRanges[labelAt(t, data, "Comment")]} {
		aliases(t, "the "+r.Label+" part of Post|Comment", messages.Parts[i], data.Vertices[r.Lo:r.Hi])
	}
	if want := int64(len(messages.Parts[0].Collect()) + len(messages.Parts[1].Collect())); messages.Pinned != want {
		t.Fatalf("a two-label scan says it reads %d elements, its parts hold %d", messages.Pinned, want)
	}
	aliases(t, "all vertices", access.Vertices(nil).Union(), data.Vertices)
	aliases(t, "all edges", access.Edges(nil).Union(), data.Edges)
	aliases(t, "the bound graph's vertices", g.Vertices, data.Vertices)
	aliases(t, "the bound graph's edges", g.Edges, data.Edges)
}

func labelAt(t testing.TB, data *GraphData, label string) int {
	t.Helper()
	for i, r := range data.VertexRanges {
		if r.Label == label {
			return i
		}
	}
	t.Fatalf("no vertex label %s", label)
	return -1
}

// TestStoreIsLabelMajor: the ranges are in label order and tile the array,
// and every element lies in its label's range.
func TestStoreIsLabelMajor(t *testing.T) {
	data := NewGraphData(ldbcGraph(t, 0.05))
	at := 0
	for i, r := range data.VertexRanges {
		if r.Lo != at || r.Hi <= r.Lo || (i > 0 && data.VertexRanges[i-1].Label >= r.Label) {
			t.Fatalf("vertex ranges do not tile in label order: %v", data.VertexRanges)
		}
		for _, v := range data.Vertices[r.Lo:r.Hi] {
			if v.Label != r.Label {
				t.Fatalf("a %s vertex in the range of %s", v.Label, r.Label)
			}
		}
		at = r.Hi
	}
	if at != len(data.Vertices) {
		t.Fatalf("vertex ranges end at %d of %d", at, len(data.Vertices))
	}
}

// TestStoreIsDeterministic is the cluster's rule: the arrays depend on the
// order within each label only. Two processes that read the labels
// interleaved differently, or onto a different number of partitions, still
// cut the same chunks.
func TestStoreIsDeterministic(t *testing.T) {
	g := ldbcGraph(t, 0.05)
	vs, es := g.Vertices.Collect(), g.Edges.Collect()
	// The same elements with the label blocks in reverse order; the stable
	// sort keeps each label's own order.
	vs2, es2 := append([]epgm.Vertex(nil), vs...), append([]epgm.Edge(nil), es...)
	sort.SliceStable(vs2, func(i, j int) bool { return vs2[i].Label > vs2[j].Label })
	sort.SliceStable(es2, func(i, j int) bool { return es2[i].Label > es2[j].Label })
	if reflect.DeepEqual(vs, vs2) || reflect.DeepEqual(es, es2) {
		t.Fatal("the shuffle changed nothing")
	}
	env := dataflow.NewEnv(dataflow.DefaultConfig(3))
	a := NewGraphData(g)
	b := NewGraphData(epgm.NewLogicalGraph(env, g.Head, dataflow.FromSlice(env, vs2), dataflow.FromSlice(env, es2)))
	if !reflect.DeepEqual(a.Store, b.Store) {
		t.Fatal("two loads of one dataset pinned different arrays")
	}
}

// liveHeap is the heap still reachable after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestPinnedGraphIsOneCopy: an open session keeps one copy of the graph it
// read - the reader's arrays, a collected copy and a per-label copy came to
// 1.91 times what the reader alone leaves behind.
func TestPinnedGraphIsOneCopy(t *testing.T) {
	dir := t.TempDir()
	if err := csvstore.WriteLogicalGraph(ldbcGraph(t, 0.5), dir); err != nil {
		t.Fatal(err)
	}
	base := liveHeap()
	g, err := csvstore.ReadLogicalGraph(dataflow.NewEnv(dataflow.DefaultConfig(4)), dir)
	if err != nil {
		t.Fatal(err)
	}
	read := liveHeap() - base
	runtime.KeepAlive(g)

	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	open := liveHeap() - base
	runtime.KeepAlive(s)
	ratio := float64(open) / float64(read)
	t.Logf("live heap %d KiB after Open, %d KiB after ReadLogicalGraph alone: %.2fx", open>>10, read>>10, ratio)
	if ratio > 1.15 {
		t.Fatalf("an open session holds %.2f times what its reader left behind, want at most 1.15", ratio)
	}
}

// bound keeps BenchmarkBind's datasets alive.
var bound epgm.Scan[epgm.Vertex]

// BenchmarkBind is what a request pays to read the pinned graph: a fresh
// environment, the bind, one single-label and one two-label scan. `make
// alloc-guard` pins its allocations: binding must not build a dataset for
// every label of the graph.
func BenchmarkBind(b *testing.B) {
	data := NewGraphData(ldbcGraph(b, 0.05))
	cfg := dataflow.DefaultConfig(4)
	b.ReportAllocs()
	for b.Loop() {
		_, access := data.Bind(dataflow.NewEnv(cfg))
		bound = access.Vertices([]string{"Person"})
		bound = access.Vertices([]string{"Comment", "Post"})
	}
}

// BenchmarkPrepare is what planning costs a session on a plan-cache miss, and a
// cluster worker on a miss of its own cache - the first job of a query on a
// statistics snapshot: core.PrepareWith of each yardstick query, canonical as
// the coordinator ships it, over the statistics of the benchmark's graph (SF 3,
// seed 2017), prepared for its store as a session prepares. `make alloc-guard`
// pins its allocations per query.
func BenchmarkPrepare(b *testing.B) {
	g := ldbcGraph(b, 3)
	data, st := NewGraphData(g), stats.Collect(g)
	for _, q := range benchkit.AllQueries {
		cfg := core.Config{Vertex: operators.Homomorphism, Edge: operators.Isomorphism, Stats: st, Access: data.Access()}
		query := CanonicalQuery(q.Text())
		b.Run(q.String(), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := core.PrepareWith(st, query, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFingerprint is what the plan fingerprint costs each of its readers
// - the session's plan hash, a coordinator's job spec, a worker's check of it -
// once a prepared yardstick query has rendered it: nothing. `make alloc-guard`
// pins it at 0 allocs/op; rendered per call, it is a string for every
// operator's description.
func BenchmarkFingerprint(b *testing.B) {
	g := ldbcGraph(b, 0.05)
	data, st := NewGraphData(g), stats.Collect(g)
	for _, q := range benchkit.AllQueries {
		prep, err := core.PrepareWith(st, CanonicalQuery(q.Text()), core.Config{Vertex: operators.Homomorphism, Edge: operators.Isomorphism,
			Access: data.Access()})
		if err != nil {
			b.Fatal(err)
		}
		want := prep.Fingerprint()
		b.Run(q.String(), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if prep.Fingerprint() != want {
					b.Fatal("the fingerprint changed")
				}
			}
		})
	}
}

// BenchmarkPreparedBind is what a request of each yardstick query pays between
// a plan-cache hit and its job: a fresh environment, the pinned graph bound to
// it, and the prepared query - prepared for the store, as a session prepares
// it - bound to that access and the request's parameters. `make alloc-guard` pins its allocations per query: the plan's
// operator tree is shared by every run, so binding builds no operator.
func BenchmarkPreparedBind(b *testing.B) {
	g := ldbcGraph(b, 0.05)
	data, st := NewGraphData(g), stats.Collect(g)
	cfg := dataflow.DefaultConfig(4)
	for _, q := range benchkit.AllQueries {
		base := core.Config{Vertex: operators.Homomorphism, Edge: operators.Isomorphism, Stats: st, Access: data.Access()}
		prep, err := core.PrepareWith(st, CanonicalQuery(q.Text()), base)
		if err != nil {
			b.Fatal(err)
		}
		if q.Operational() {
			base.Params = map[string]epgm.PropertyValue{"firstName": epgm.PVString("Jan")}
		}
		b.Run(q.String(), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				g, access := data.Bind(dataflow.NewEnv(cfg))
				run := base
				run.Access = access
				if _, err := prep.Bind(g, run); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestLeavesLeaveTheResultsKeys: a session plans over its store, and over
// the store of SF 3 (seed 2017) no vertex leaf of Q1-Q6 projects a key that
// only the result reads - the result reads it from the store by the vertex's
// id - so no row of theirs carries it, and their plans bind to read the store.
// Each plan is the plain graph's but for what the joins leave out: leaving a
// property in the store shares, splits or reorders no leaf.
func TestLeavesLeaveTheResultsKeys(t *testing.T) {
	s := New(ldbcGraph(t, 3), Options{Workers: 4})
	defer s.Close()
	st := s.snapshot()
	drops := regexp.MustCompile(`, drop=[^)]*`)
	for _, q := range benchkit.AllQueries {
		prep, _, err := s.compile(st, CanonicalQuery(q.Text()), nil)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		plain, err := core.PrepareWith(st.stats, CanonicalQuery(q.Text()), s.baseConfig())
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if got, want := drops.ReplaceAllString(prep.Plan.Explain(), ""), drops.ReplaceAllString(plain.Plan.Explain(), ""); got != want {
			t.Errorf("%s: over the store\n%s\nover the plain graph\n%s", q, got, want)
		}
		stored := 0
		for _, n := range prep.Plan.Nodes() {
			leaf, ok := n.Op.(*operators.FilterAndProjectVertices)
			if !ok {
				continue
			}
			for _, k := range leaf.Vertex.Returned {
				stored++
				if leaf.Meta().HasProp(leaf.Vertex.Var, k) {
					t.Errorf("%s: the leaf of %s projects %s, which only the result reads", q, leaf.Vertex.Var, k)
				}
			}
		}
		g, access := st.data.Bind(dataflow.NewEnv(dataflow.DefaultConfig(4)))
		cfg := core.Config{Access: access, Params: map[string]epgm.PropertyValue{"firstName": epgm.PVString("Jan")}}
		res, err := prep.Bind(g, cfg)
		if err != nil {
			t.Fatalf("%s: bind: %v", q, err)
		}
		if stored == 0 || res.Plan.PropertyStore() != st.data.Store {
			t.Errorf("%s: %d keys only the result reads; the result reads store %p, the session's is %p",
				q, stored, res.Plan.PropertyStore(), st.data.Store)
		}
	}
}
