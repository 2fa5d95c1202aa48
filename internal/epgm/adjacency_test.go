package epgm

import (
	"slices"
	"sync"
	"testing"

	"gradoop/internal/dataflow"
)

// TestAdjacency holds a store's adjacency to the edges it groups, on ids that
// are neither dense nor in order: every vertex's edges of a label, both ways,
// are its edges of that label in the store's order, a vertex without such
// edges has none, and an alternation or no label reads the labels that have
// edges, in label order.
func TestAdjacency(t *testing.T) {
	ids := []ID{900, 7, 1 << 40, 12, 3}
	vs := make([]Vertex, len(ids))
	for i, id := range ids {
		vs[i] = Vertex{ID: id, Label: "Person"}
	}
	var es []Edge
	for i, st := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 2}, {3, 0}, {0, 1}, {4, 3}} {
		label := "knows"
		if i%3 == 2 {
			label = "likes"
		}
		es = append(es, Edge{ID: ID(5000 - i), Label: label, Source: ids[st[0]], Target: ids[st[1]]})
	}
	s := NewStore(GraphFromSlices(dataflow.NewEnv(dataflow.DefaultConfig(2)), "", vs, es))

	for _, in := range []bool{false, true} {
		for _, labels := range [][]string{{"knows"}, {"likes"}, {"likes", "knows"}, nil, {"nothing"}} {
			lists := s.Adjacency(labels, in)
			var want []string
			for _, r := range s.EdgeRanges {
				if len(labels) == 0 || slices.Contains(labels, r.Label) {
					want = append(want, r.Label)
				}
			}
			if len(lists) != len(want) {
				t.Fatalf("labels %v: %d lists, want %d", labels, len(lists), len(want))
			}
			for i, a := range lists {
				for _, v := range append(ids, 4) {
					var wantPos []int32
					for pos, e := range s.Edges {
						from := e.Source
						if in {
							from = e.Target
						}
						if e.Label == want[i] && from == v {
							wantPos = append(wantPos, int32(pos))
						}
					}
					if got := a.Of(v); !slices.Equal(got, wantPos) || a.In != in {
						t.Errorf("%s in=%v of %d: edges %v (in=%v), want %v", want[i], in, v, got, a.In, wantPos)
					}
				}
			}
		}
	}
}

// TestAdjacencyConcurrentFirstUse: queries that ask a store for the same
// adjacency at once are handed one, built once; the arrays are not written.
func TestAdjacencyConcurrentFirstUse(t *testing.T) {
	g := socialGraph(t, 4)
	s := NewStore(g)
	edges := slices.Clone(s.Edges)
	const n = 8
	got := make([][]*Adjacency, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range n {
		go func() {
			defer wg.Done()
			got[i] = append(s.Adjacency(nil, i%2 == 1), s.Adjacency([]string{"knows"}, i%2 == 0)...)
		}()
	}
	wg.Wait()
	for i := 2; i < n; i++ {
		if !slices.Equal(got[i], got[i%2]) {
			t.Fatalf("goroutine %d was handed other adjacencies than goroutine %d", i, i%2)
		}
	}
	if !slices.EqualFunc(s.Edges, edges, func(a, b Edge) bool { return a.ID == b.ID }) {
		t.Fatal("building the adjacency moved the store's edges")
	}
}
