package epgm

import (
	"cmp"
	"slices"
)

// Adjacency is the edges of one label grouped by the vertex they leave - by
// their source or, for the incoming direction, by their target - the access
// path of a variable-length path that walks the store in place instead of
// joining a working set with the edge set once per hop. An edge is kept as its
// position in the store's edge array, four bytes, and a vertex's edges are in
// the array's order. It makes no assumption that ids are dense: the vertices
// that have edges are kept sorted and searched.
type Adjacency struct {
	// In: the edges are keyed by their target, and the far end of each is
	// its source.
	In   bool
	from []ID    // the vertices with edges, ascending
	lo   []int32 // from[i]'s edges are pos[lo[i]:lo[i+1]]
	pos  []int32
}

// Of returns the positions of the edges that leave v, none if it has no edge
// of the label in the adjacency's direction. The slice is the adjacency's:
// read, never written.
func (a *Adjacency) Of(v ID) []int32 {
	i, ok := slices.BinarySearch(a.from, v)
	if !ok {
		return nil
	}
	return a.pos[a.lo[i]:a.lo[i+1]]
}

// newAdjacency builds the adjacency of the edges in [lo,hi) of edges, keyed by
// their source, or by their target when in.
func newAdjacency(edges []Edge, lo, hi int, in bool) *Adjacency {
	from := func(p int32) ID {
		if in {
			return edges[p].Target
		}
		return edges[p].Source
	}
	a := &Adjacency{In: in, pos: make([]int32, hi-lo)}
	for i := range a.pos {
		a.pos[i] = int32(lo + i)
	}
	// Stable, so a vertex's edges keep the array's order.
	slices.SortStableFunc(a.pos, func(p, q int32) int { return cmp.Compare(from(p), from(q)) })
	starts := 0
	for i, p := range a.pos {
		if i == 0 || from(p) != from(a.pos[i-1]) {
			starts++
		}
	}
	a.from, a.lo = make([]ID, 0, starts), make([]int32, 0, starts+1)
	for i, p := range a.pos {
		if i == 0 || from(p) != a.from[len(a.from)-1] {
			a.from = append(a.from, from(p))
			a.lo = append(a.lo, int32(i))
		}
	}
	a.lo = append(a.lo, int32(len(a.pos)))
	return a
}

// Adjacency returns the adjacency of every label of the alternation labels
// (every label, for none) that has edges, in label order: outgoing, or
// incoming when in. A label's, in a direction, is built the first time a
// query asks for it and kept for every later one; nothing is built for a
// label no walk reads. It is safe for concurrent use.
func (s *Store) Adjacency(labels []string, in bool) []*Adjacency {
	dir := 0
	if in {
		dir = 1
	}
	s.adjMu.Lock()
	defer s.adjMu.Unlock()
	if s.adj == nil {
		s.adj = make([]*Adjacency, 2*len(s.EdgeRanges))
	}
	var out []*Adjacency
	for i, r := range s.EdgeRanges {
		if r.Hi == r.Lo || len(labels) > 0 && !slices.Contains(labels, r.Label) {
			continue
		}
		a := s.adj[2*i+dir]
		if a == nil {
			a = newAdjacency(s.Edges, r.Lo, r.Hi, in)
			s.adj[2*i+dir] = a
		}
		out = append(out, a)
	}
	return out
}
