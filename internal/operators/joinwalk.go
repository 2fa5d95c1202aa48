package operators

import (
	"fmt"
	"sync/atomic"

	"gradoop/internal/cypher"
	"gradoop/internal/dataflow"
	"gradoop/internal/embedding"
	"gradoop/internal/epgm"
)

// edgeWalk is how a join reads an input that is a directed non-loop edge leaf
// - bare or behind an Alias and a Cached - whose ends the other input binds,
// if it walks it over a pinned store (DESIGN decision 46): the leaf, and the
// columns at which the other input binds the leaf's source and its target, -1
// for an end it does not bind. The zero value is an input the join does not
// walk.
type edgeWalk struct {
	leaf     *FilterAndProjectEdges
	from, to int
}

// newEdgeWalk is how a join walks in, its input beside other.
func newEdgeWalk(in, other Operator) edgeWalk {
	leaf, ok := Unwrap(in).(*FilterAndProjectEdges)
	if !ok || leaf.loop || leaf.Edge.Undirected {
		return edgeWalk{}
	}
	// A non-loop edge leaf's row is source, edge, target, under the names the
	// join reads them by.
	m, om := in.Meta(), other.Meta()
	w := edgeWalk{leaf: leaf, from: -1, to: -1}
	if c, ok := om.Column(m.Var(0)); ok {
		w.from = c
	}
	if c, ok := om.Column(m.Var(2)); ok {
		w.to = c
	}
	if w.from < 0 && w.to < 0 {
		return edgeWalk{}
	}
	return w
}

// walked names the input the join walks in r, if it walks one: over a pinned
// store, a join that hands on no key set walks an input edge leaf whose ends
// the other input binds (edgeWalk), that the run does not hold yet and whose
// scan tests no key set (tests, Run.route). The planner puts the input it
// expects to be smaller on the left, so the right one is tried first.
func (op *JoinEmbeddings) walked(r *Run, tests [2]*keyTest) (side int, ok bool) {
	if len(op.sets) > 0 || r.access.Store() == nil {
		return 0, false
	}
	ins := [2]Operator{op.Left, op.Right}
	for _, side := range [2]int{1, 0} {
		if op.walks[side].leaf != nil && tests[side] == nil && !r.holds(ins[side]) {
			return side, true
		}
	}
	return 0, false
}

// atPairs reports whether the join tests the key sets given it at its pairs
// rather than in its input leaves' scans: over a pinned store, it has an input
// leaf it alone consumes - bare or behind a Cached no Alias shares - beside an
// input with a predicate below it, and reads that leaf where it lies: a vertex
// leaf it would probe in place, or an edge leaf it walks. The selective input
// is then small against the leaf, and the pairs are few.
func (op *JoinEmbeddings) atPairs(r *Run) bool {
	if leaf, _ := op.inPlaceCandidate(r, [2]*keyTest{}); leaf != nil {
		return true
	}
	if len(op.sets) > 0 || r.access.Store() == nil {
		return false
	}
	ins := [2]Operator{op.Left, op.Right}
	for side, in := range ins {
		if c, ok := in.(*Cached); ok && !c.shared {
			in = c.Inner
		}
		if w := op.walks[side]; w.leaf != nil && in == w.leaf && ins[1-side].Selective() {
			return true
		}
	}
	return false
}

// walk joins rows, the join's other input evaluated, with the edge leaf on
// side - 0 left, 1 right - without running the leaf: for each row it reads,
// off the run's pinned store, the edges of the leaf's types that leave the
// vertex the row binds as the leaf's source, or else enter the one it binds as
// its target. Where the row binds both ends, an edge whose far end is not the
// row's is no candidate: the walk closes. Each candidate gets the leaf's row -
// label, predicates, projection - in the lane's row buffer, which is never
// carved, and the pair is what join does with it: sameKeys, the key test
// pairs, the morphism check and Slab.Merge, columns in the plan's order. The
// output is allocated once, at the candidates the rows' lists hold. No leaf,
// count, broadcast, shuffle or hash table runs, so there is no collective:
// rows come out in the other input's partitions, in its order, and carry no
// partition tag. The leaf is reported to a tracer as evaluated, under the
// input the join reads, with the rows it made; the join notes the edges it
// read.
func (op *JoinEmbeddings) walk(r *Run, side int, rows *dataflow.Dataset[embedding.Embedding], pairs *keyTest) *dataflow.Dataset[embedding.Embedding] {
	w := op.walks[side]
	qe, store := r.edge(w.leaf.Edge), r.access.Store()
	// at is the end the lists are keyed by, closing the other one if the row
	// binds it too.
	jw := &joinWalk{op: op, leaf: w.leaf, qe: qe, edges: store.Edges, pairs: pairs, side: side, at: w.from, closing: w.to}
	if jw.at < 0 {
		jw.at, jw.closing = w.to, -1
	}
	jw.lists = store.Adjacency(qe.Types, w.from < 0)
	c := r.env.Tracer()
	if c != nil {
		jw.read, jw.made = new(atomic.Int64), new(atomic.Int64)
	}
	defer noteDropped(r, op, pairs)
	out := dataflow.FlatMapSized(rows, jw.size, func(lane *dataflow.Lane) func(embedding.Embedding, func(embedding.Embedding)) {
		sc := scratchOf(lane)
		return func(o embedding.Embedding, emit func(embedding.Embedding)) { jw.join(sc, o, emit) }
	})
	if c != nil {
		c.InOp([2]Operator{op.Left, op.Right}[side], r.label(w.leaf), jw.made.Load)
		c.Note(op, fmt.Sprintf("walked in place: edges=%d", jw.read.Load()))
	}
	return out
}

// joinWalk is what every partition attempt of a walked join reads: the join,
// the run's instance of the leaf's query edge, the store's edge array and the
// adjacency lists of the leaf's types keyed by the end at, the key test of the
// pairs, the side the leaf is on and the other input's columns of the end the
// lists are keyed by and of the one the walk closes on (-1: none), and, where
// the run is traced, the edges read and the rows made. It is one object a
// walk, so that an attempt's function holds it and the lane's scratch only.
type joinWalk struct {
	op                *JoinEmbeddings
	leaf              *FilterAndProjectEdges
	qe                *cypher.QueryEdge
	lists             []*epgm.Adjacency
	edges             []epgm.Edge
	pairs             *keyTest
	side, at, closing int
	read, made        *atomic.Int64
}

// size is the number of candidates of the other input's row o: its edges in
// the lists, those whose far end is o's if the walk closes.
func (jw *joinWalk) size(o embedding.Embedding) int {
	n := 0
	for _, l := range jw.lists {
		pos := l.Of(o.ID(jw.at))
		if jw.closing < 0 {
			n += len(pos)
			continue
		}
		for _, p := range pos {
			if jw.edges[p].Target == o.ID(jw.closing) {
				n++
			}
		}
	}
	return n
}

// join writes the rows of o, a row of the other input, and its candidates.
func (jw *joinWalk) join(sc *scratch, o embedding.Embedding, emit func(embedding.Embedding)) {
	op, qe := jw.op, jw.qe
	lm, rm := op.Left.Meta(), op.Right.Meta()
	var n, m int64
	for _, l := range jw.lists {
		for _, p := range l.Of(o.ID(jw.at)) {
			de := &jw.edges[p]
			n++
			if jw.closing >= 0 && de.Target != o.ID(jw.closing) || !jw.leaf.selects(qe, de) {
				continue
			}
			m++
			ids := [3]epgm.ID{de.Source, de.ID, de.Target}
			row := sc.edge.Row(ids[:], sc.project(de.Properties, qe.Projection))
			left, right := o, row
			if jw.side == 0 {
				left, right = row, o
			}
			if sameKeys(left, right, op.leftCols, op.rightCols) && jw.pairs.keeps(left, right) &&
				sc.validPair(left, lm, right, rm, op.dropCols, op.Morph) {
				emit(sc.slab.Merge(left, right, op.keep))
			}
		}
	}
	if jw.read != nil {
		jw.read.Add(n)
		jw.made.Add(m)
	}
}
