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

// TestPositions finds every vertex of a store by its id, on ids that are
// neither dense nor in order, both vertices of an id the input gave twice, in
// the array's order, and no id the store does not hold.
func TestPositions(t *testing.T) {
	ids := []ID{900, 7, 1 << 40, 12, 3, 7}
	labels := []string{"Post", "Person", "Post", "Comment", "Person", "Comment"}
	vs := make([]Vertex, len(ids))
	for i, id := range ids {
		vs[i] = Vertex{ID: id, Label: labels[i]}
	}
	s := NewStore(GraphFromSlices(dataflow.NewEnv(dataflow.DefaultConfig(2)), "", vs, nil))
	p := s.Positions()
	for _, id := range ids {
		var want []int32
		for i, v := range s.Vertices {
			if v.ID == id {
				want = append(want, int32(i))
			}
		}
		if got := p.Of(id); !slices.Equal(got, want) {
			t.Errorf("vertex %d: positions %v, want %v", id, got, want)
		}
	}
	if got := p.Of(7); len(got) != 2 {
		t.Errorf("vertex 7, given twice: positions %v", got)
	}
	for _, id := range []ID{0, 4, 13, 901, 1<<40 + 1} {
		if pos := p.Of(id); len(pos) != 0 {
			t.Errorf("no vertex %d, found at %v", id, pos)
		}
	}
	if s.Positions() != p {
		t.Error("a second call built the index again")
	}
}

// TestPositionsTableAgreesWithSearch holds Of, which reads a table indexed by
// id where the ids are dense, to a binary search over the sorted ids: on dense
// ids, on sparse ones whose span is over the table's limit, and on dense ones
// the input gives twice, for every id from below the least to past the
// greatest. Unique says whether an id was given twice.
func TestPositionsTableAgreesWithSearch(t *testing.T) {
	const n = 500
	cases := []struct {
		name          string
		id            func(i int) ID
		table, unique bool
	}{
		{"dense", func(i int) ID { return 1000 + ID(i*4) }, true, true},
		{"sparse", func(i int) ID { return 1000 + ID(i*(denseSpan+1)) }, false, true},
		{"repeated", func(i int) ID { return 1000 + ID(i/3) }, true, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			vs := make([]Vertex, n)
			for i := range vs {
				vs[i] = Vertex{ID: c.id((i * 7) % n)} // not in id order
			}
			p := newPositions(vs)
			if (p.at != nil) != c.table || p.Unique() != c.unique {
				t.Fatalf("table %v unique %v, want %v and %v", p.at != nil, p.Unique(), c.table, c.unique)
			}
			search := func(v ID) []int32 {
				i, ok := slices.BinarySearch(p.ids, v)
				if !ok {
					return nil
				}
				j := i
				for j < len(p.ids) && p.ids[j] == v {
					j++
				}
				return p.pos[i:j]
			}
			for v := c.id(0) - 2; v <= c.id(n-1)+2; v++ {
				got, want := p.Of(v), search(v)
				if !slices.Equal(got, want) {
					t.Fatalf("id %d: Of %v, search %v", v, got, want)
				}
				for _, q := range got {
					if vs[q].ID != v {
						t.Fatalf("id %d: position %d holds vertex %d", v, q, vs[q].ID)
					}
				}
			}
		})
	}
}
