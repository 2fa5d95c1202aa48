package epgm

import (
	"sort"

	"gradoop/internal/dataflow"
)

// Store is a graph's pinned, label-partitioned representation (§3.4): one
// vertex and one edge array in label-major order - labels sorted, the order
// within a label as in the input - plus one [Lo,Hi) range per label. The
// order is a function of the input alone, so every process of a cluster that
// loads the same dataset derives the identical arrays and, with them, the
// identical chunk boundaries of every dataset cut from them. A Store belongs
// to no environment and is immutable once built: any number of concurrent
// queries Index it onto their own.
type Store struct {
	Head     GraphHead
	Vertices []Vertex
	Edges    []Edge
	// VertexRanges and EdgeRanges are in label order and tile their array.
	VertexRanges []LabelRange
	EdgeRanges   []LabelRange
}

// LabelRange locates one label's elements in a Store's array.
type LabelRange struct {
	Label  string
	Lo, Hi int
}

// NewStore builds the store of a logical graph.
func NewStore(g *LogicalGraph) *Store {
	s := &Store{Head: g.Head}
	s.Vertices, s.VertexRanges = labelMajor(g.Vertices, func(v *Vertex) string { return v.Label })
	s.Edges, s.EdgeRanges = labelMajor(g.Edges, func(e *Edge) string { return e.Label })
	return s
}

// labelMajor is a counting sort of d's elements by label: count, lay the
// ranges out in label order, then write every element once into an array
// allocated at its final size.
func labelMajor[T any](d *dataflow.Dataset[T], label func(*T) string) ([]T, []LabelRange) {
	counts := map[string]int{}
	for p := 0; p < d.Partitions(); p++ {
		part := d.Partition(p)
		for i := range part {
			counts[label(&part[i])]++
		}
	}
	ranges := make([]LabelRange, 0, len(counts))
	for l := range counts {
		ranges = append(ranges, LabelRange{Label: l})
	}
	sort.Slice(ranges, func(i, j int) bool { return ranges[i].Label < ranges[j].Label })
	next := make(map[string]int, len(ranges)) // where each label's next element goes
	total := 0
	for i := range ranges {
		r := &ranges[i]
		r.Lo, r.Hi = total, total+counts[r.Label]
		next[r.Label] = r.Lo
		total = r.Hi
	}
	out := make([]T, total)
	for p := 0; p < d.Partitions(); p++ {
		part := d.Partition(p)
		for i := range part {
			l := label(&part[i])
			out[next[l]] = part[i]
			next[l]++
		}
	}
	return out, ranges
}

// Index binds the store to an environment.
func (s *Store) Index(env *dataflow.Env) *IndexedLogicalGraph {
	return &IndexedLogicalGraph{env: env, store: s}
}

// IndexedLogicalGraph is the alternative graph representation of §3.4: a
// Store bound to an environment. When a query element carries a label
// predicate, the planner loads only that label's range of the array instead
// of scanning (and replicating) all elements. Datasets are cut on request
// and copy nothing: a label's is a sub-slice of the store's array.
type IndexedLogicalGraph struct {
	env   *dataflow.Env
	store *Store
}

// BuildIndex converts a logical graph into its label-indexed representation.
func BuildIndex(g *LogicalGraph) *IndexedLogicalGraph { return NewStore(g).Index(g.env) }

// Env returns the execution environment.
func (x *IndexedLogicalGraph) Env() *dataflow.Env { return x.env }

// Scan is what a leaf operator reads of a graph.
type Scan[T any] struct {
	// Parts is one dataset per populated label range the leaf reads, in the
	// order its labels were given - each a sub-slice of the store's array,
	// nothing is copied - or the one dataset of a plain graph. It is never
	// empty: labels that select nothing read one empty dataset.
	Parts []*dataflow.Dataset[T]
	// Pinned is how many elements Parts hold over all processes of a job when
	// they are ranges of a Store - the sum of the ranges' lengths, which every
	// process reads off its own copy of the store - and 0 for a plain graph,
	// whose dataset knows its own partitions only.
	Pinned int64
}

// PlainScan is the scan of a plain graph's dataset: all of it, whatever the
// labels.
func PlainScan[T any](d *dataflow.Dataset[T]) Scan[T] {
	return Scan[T]{Parts: []*dataflow.Dataset[T]{d}}
}

// Union is the scan as one dataset: its parts concatenated partition by
// partition, which copies only if there are two or more.
func (s Scan[T]) Union() *dataflow.Dataset[T] {
	if len(s.Parts) == 1 {
		return s.Parts[0]
	}
	return dataflow.UnionAll(s.Parts...)
}

// Vertices returns what a scan of one or more vertex labels reads (unknown
// labels select nothing), or all vertices, in label-major order, when no
// label is given.
func (x *IndexedLogicalGraph) Vertices(labels ...string) Scan[Vertex] {
	return scan(x.env, x.store.Vertices, x.store.VertexRanges, labels)
}

// Edges returns what a scan of one or more edge labels reads, or all edges
// when no label is given.
func (x *IndexedLogicalGraph) Edges(labels ...string) Scan[Edge] {
	return scan(x.env, x.store.Edges, x.store.EdgeRanges, labels)
}

// scan cuts a label alternation out of a store array: one dataset per
// populated label, the whole array for no label. No stage runs and no
// element moves; a leaf walks the parts one by one.
func scan[T any](env *dataflow.Env, all []T, ranges []LabelRange, labels []string) Scan[T] {
	if len(labels) == 0 {
		return Scan[T]{Parts: []*dataflow.Dataset[T]{dataflow.FromSlice(env, all)}, Pinned: int64(len(all))}
	}
	s := Scan[T]{Parts: make([]*dataflow.Dataset[T], 0, len(labels))}
	for _, l := range labels {
		for _, r := range ranges { // a schema's worth of labels: a walk, not a search
			if r.Label == l && r.Hi > r.Lo {
				s.Parts = append(s.Parts, dataflow.FromSlice(env, all[r.Lo:r.Hi]))
				s.Pinned += int64(r.Hi - r.Lo)
			}
		}
	}
	if len(s.Parts) == 0 {
		s.Parts = append(s.Parts, dataflow.Empty[T](env))
	}
	return s
}

// VertexLabels returns the indexed vertex labels in sorted order.
func (x *IndexedLogicalGraph) VertexLabels() []string { return labelsOf(x.store.VertexRanges) }

// EdgeLabels returns the indexed edge labels in sorted order.
func (x *IndexedLogicalGraph) EdgeLabels() []string { return labelsOf(x.store.EdgeRanges) }

func labelsOf(ranges []LabelRange) []string {
	labels := make([]string, len(ranges))
	for i, r := range ranges {
		labels[i] = r.Label
	}
	return labels
}

// ToLogicalGraph flattens the index back into a plain logical graph over the
// store's arrays.
func (x *IndexedLogicalGraph) ToLogicalGraph() *LogicalGraph {
	return &LogicalGraph{env: x.env, Head: x.store.Head, Vertices: x.Vertices().Union(), Edges: x.Edges().Union()}
}
