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
// their source, or by their target when in. The edges are sorted as (vertex,
// position) pairs in a transient array, by a radix sort that keeps the
// array's order among a vertex's edges; no step reads the edge array at
// random (sorting the positions by their edges' vertices cost a cold session
// a few tens of milliseconds for the incoming lists of SF 3).
func newAdjacency(edges []Edge, lo, hi int, in bool) *Adjacency {
	ks := make([]keyed, hi-lo)
	for i := range ks {
		e := &edges[lo+i]
		ks[i] = keyed{from: e.Source, pos: int32(lo + i)}
		if in {
			ks[i].from = e.Target
		}
	}
	ks = sortByFrom(ks, make([]keyed, len(ks)))
	starts := 0
	for i, k := range ks {
		if i == 0 || k.from != ks[i-1].from {
			starts++
		}
	}
	a := &Adjacency{In: in, pos: make([]int32, len(ks)), from: make([]ID, 0, starts), lo: make([]int32, 0, starts+1)}
	for i, k := range ks {
		a.pos[i] = k.pos
		if i == 0 || k.from != ks[i-1].from {
			a.from = append(a.from, k.from)
			a.lo = append(a.lo, int32(i))
		}
	}
	a.lo = append(a.lo, int32(len(ks)))
	return a
}

// keyed is an edge's position in the store's edge array and the vertex an
// adjacency keys it by.
type keyed struct {
	from ID
	pos  int32
}

// sortByFrom sorts ks by vertex, stably, and returns it sorted: a radix sort
// a byte at a time from the lowest, over the bytes in which some two vertices
// differ, that moves the pairs between ks and buf, which is as long.
func sortByFrom(ks, buf []keyed) []keyed {
	or, and := ID(0), ^ID(0)
	for _, k := range ks {
		or, and = or|k.from, and&k.from
	}
	for shift := 0; shift < 64; shift += 8 {
		if (or^and)>>shift&0xff == 0 {
			continue
		}
		var at [257]int
		for _, k := range ks {
			at[k.from>>shift&0xff+1]++
		}
		for b := 1; b < len(at); b++ {
			at[b] += at[b-1]
		}
		for _, k := range ks {
			b := k.from >> shift & 0xff
			buf[at[b]] = k
			at[b]++
		}
		ks, buf = buf, ks
	}
	return ks
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

// Positions is a store's vertices by id: their ids in ascending order and
// each one's position in the vertex array, twelve bytes a vertex, which a walk
// searches for where a vertex it reaches lies - and so for its label - a join
// for the vertex of an id it looks up, and a result for the properties of a
// vertex its rows bind by id alone. Where the ids are dense enough - their
// span at most denseSpan times the vertex count - a table indexed by id - min
// finds an id's place in one read, four bytes a slot; elsewhere Of searches.
type Positions struct {
	ids []ID
	pos []int32
	// at[v-min] is 1 + the index in ids of v's first vertex, 0 for an id no
	// vertex has; nil when the ids are too sparse for the table.
	at     []int32
	min    ID
	unique bool
}

// denseSpan is how many times the vertex count the id span may be for
// Positions to keep its table: at four bytes a slot, the table then costs at
// most 64 bytes a vertex, beside the twelve of the sorted arrays.
const denseSpan = 16

// Of returns the positions of the vertices with id v in the store's vertex
// array, in the array's order, none if the store has none: one, unless the
// input gave two vertices one id. The slice is the store's: read, never
// written.
func (p *Positions) Of(v ID) []int32 {
	var i int
	if p.at != nil {
		if v < p.min || v-p.min >= ID(len(p.at)) || p.at[v-p.min] == 0 {
			return nil
		}
		i = int(p.at[v-p.min] - 1)
	} else {
		var ok bool
		if i, ok = slices.BinarySearch(p.ids, v); !ok {
			return nil
		}
	}
	j := i + 1
	for !p.unique && j < len(p.ids) && p.ids[j] == v {
		j++
	}
	return p.pos[i:j:j]
}

// Unique reports whether no two vertices of the store share an id: whether
// an id alone names a vertex.
func (p *Positions) Unique() bool { return p.unique }

// Positions returns the store's vertices by id. It is built the first time a
// query asks for it and kept for every later one, as an adjacency is, and is
// safe for concurrent use.
func (s *Store) Positions() *Positions {
	s.positionsOnce.Do(func() { s.positions = newPositions(s.Vertices) })
	return s.positions
}

func newPositions(vertices []Vertex) *Positions {
	p := &Positions{ids: make([]ID, len(vertices)), pos: make([]int32, len(vertices)), unique: true}
	for i := range p.pos {
		p.pos[i] = int32(i)
	}
	slices.SortFunc(p.pos, func(a, b int32) int {
		return cmp.Or(cmp.Compare(vertices[a].ID, vertices[b].ID), cmp.Compare(a, b))
	})
	for i, q := range p.pos {
		p.ids[i] = vertices[q].ID
		if i > 0 && p.ids[i] == p.ids[i-1] {
			p.unique = false
		}
	}
	if n := len(p.ids); n > 0 && uint64(p.ids[n-1]-p.ids[0]) < uint64(denseSpan*n) {
		p.min, p.at = p.ids[0], make([]int32, p.ids[n-1]-p.ids[0]+1)
		for i := n - 1; i >= 0; i-- { // the first of an id's vertices wins
			p.at[p.ids[i]-p.min] = int32(i + 1)
		}
	}
	return p
}
