package operators

import (
	"fmt"
	"sync/atomic"

	"gradoop/internal/cypher"
	"gradoop/internal/dataflow"
	"gradoop/internal/embedding"
	"gradoop/internal/epgm"
)

// leafWalk is how a join reads an input leaf where a pinned store holds it,
// if it can (DESIGN decision 46): the leaf - a vertex leaf or a directed
// non-loop edge leaf, bare or behind an Alias and a Cached - and the columns
// at which the other input binds the leaf's vertex or source and its target,
// -1 for an end it does not bind. An edge leaf is walked off the store's
// adjacency from the ends the other input binds, a vertex leaf is looked up
// by the id it binds, which it always does. The zero value is an input the
// join reads by hash.
type leafWalk struct {
	leaf     scanLeaf
	from, to int
}

// newLeafWalk is how a join reads in, its input beside other.
func newLeafWalk(in, other Operator) leafWalk {
	leaf := keyedLeaf(Unwrap(in))
	if leaf == nil {
		return leafWalk{}
	}
	// A vertex leaf's row is its vertex, a non-loop edge leaf's its source,
	// edge and target, under the names the join reads them by.
	m, om := in.Meta(), other.Meta()
	w := leafWalk{leaf: leaf, from: -1, to: -1}
	if c, ok := om.Column(m.Var(0)); ok {
		w.from = c
	}
	if w.edges() {
		if c, ok := om.Column(m.Var(2)); ok {
			w.to = c
		}
	}
	if w.from < 0 && w.to < 0 {
		return leafWalk{}
	}
	return w
}

// edges reports whether the walk is of an edge leaf.
func (w leafWalk) edges() bool {
	_, ok := w.leaf.(*FilterAndProjectEdges)
	return ok
}

// walked names the input the join reads where the store holds it in r, if it
// reads one so: over a pinned store, a join that hands on no key set reads an
// input leaf it can (leafWalk) and that the run does not hold yet - an edge
// leaf on either side first, then a vertex leaf. A leaf whose scan would test
// a key set (tests, Run.route) is small once tested, so it is read in place
// only beside an input that is small too - one with a predicate below it or a
// scan that tests a set - and the walk tests the set on every element it
// reads. The planner puts the input it expects to be smaller on the left, so
// the right one is tried first.
func (op *JoinEmbeddings) walked(r *Run, tests [2]*keyTest) (side int, ok bool) {
	if len(op.sets) > 0 || r.access.Store() == nil {
		return 0, false
	}
	ins := [2]Operator{op.Left, op.Right}
	for _, edges := range [2]bool{true, false} {
		for _, side := range [2]int{1, 0} {
			if w := op.walks[side]; w.leaf == nil || w.edges() != edges || r.holds(ins[side]) {
				continue
			}
			if tests[side] == nil || ins[1-side].Selective() || tests[1-side] != nil {
				return side, true
			}
		}
	}
	return 0, false
}

// atPairs reports whether the join tests the key sets given it at its pairs
// rather than in its input leaves' scans: over a pinned store, it has an input
// leaf it alone consumes - bare or behind a Cached no Alias shares - and can
// read where it lies, beside an input with a predicate below it. The
// selective input is then small against the leaf, and the pairs are few.
func (op *JoinEmbeddings) atPairs(r *Run) bool {
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

// walk joins rows, the join's other input evaluated, with the leaf on side -
// 0 left, 1 right - without running the leaf. For each row it reads, off the
// run's pinned store, the leaf's candidates: of an edge leaf the edges of its
// types that leave the vertex the row binds as the leaf's source, or else
// enter the one it binds as its target - where the row binds both ends, an
// edge whose far end is not the row's is no candidate: the walk closes - and
// of a vertex leaf every vertex of the id the row binds (Positions.Of: one,
// unless the input gave an id twice). A candidate whose identifiers fail
// scan, the key test the leaf's scan would have made, is dropped first, as the
// scan tests it. Each other candidate gets the leaf's row - label,
// predicates, projection - in the lane's row buffer, which is never carved,
// and the pair is what join does with it: sameKeys, the key test pairs, the
// morphism check and Slab.Merge, columns in the plan's order. No leaf,
// broadcast, shuffle or hash table runs, so there is no collective: rows come
// out in the other input's partitions, in its order, and carry no partition
// tag. The leaf is reported to a tracer as evaluated, under the input the join
// reads, with the rows it made, as read in place and, if scan tests a set,
// with the elements it tested and dropped; the join notes the elements it
// read.
func (op *JoinEmbeddings) walk(r *Run, side int, rows *dataflow.Dataset[embedding.Embedding], pairs, scan *keyTest) *dataflow.Dataset[embedding.Embedding] {
	w := op.walks[side]
	store := r.access.Store()
	jw := &joinWalk{op: op, pairs: pairs, scan: scan, side: side, at: w.from, closing: w.to, store: store}
	read := "walked in place: edges=%d"
	switch leaf := w.leaf.(type) {
	case *FilterAndProjectEdges:
		// at is the end the lists are keyed by, closing the other one if the
		// row binds it too.
		jw.edgeLeaf, jw.qe = leaf, r.edge(leaf.Edge)
		if jw.at < 0 {
			jw.at, jw.closing = w.to, -1
		}
		jw.lists = store.Adjacency(jw.qe.Types, w.from < 0)
	case *FilterAndProjectVertices:
		jw.vertexLeaf, jw.qv, jw.positions = leaf, r.vertex(leaf.Vertex), store.Positions()
		read = "looked up in place: vertices=%d"
	}
	c := r.env.Tracer()
	if c != nil {
		jw.counts = new(walkCounts)
	}
	defer noteDropped(r, op, pairs)
	out := dataflow.FlatMapWith(rows, func(lane *dataflow.Lane) func(embedding.Embedding, func(embedding.Embedding)) {
		sc := scratchOf(lane)
		return func(o embedding.Embedding, emit func(embedding.Embedding)) { jw.join(sc, o, emit) }
	})
	if c != nil {
		in := [2]Operator{op.Left, op.Right}[side]
		c.InOp(in, r.label(w.leaf), jw.counts.made.Load)
		c.ReadInPlace(in)
		if scan != nil { // tested on every element read, as a scan tests every element
			c.Note(in, fmt.Sprintf("sip scanned=%d dropped=%d", jw.counts.read.Load(), scan.dropped.Load()))
		}
		c.Note(op, fmt.Sprintf(read, jw.counts.read.Load()))
	}
	return out
}

// joinWalk is what every partition attempt of a join that reads a leaf where
// it lies reads: the join, the key tests of the pairs and of the leaf's scan,
// the side the leaf is on and the other input's columns of the vertex or the
// end the candidates are found by and of the one an edge walk closes on (-1:
// none), where the run is traced the elements read and the rows made, and the
// run's pinned store. Of an edge leaf it holds the leaf, the run's instance of
// its query edge and the adjacency lists of the leaf's types keyed by the end
// at; of a vertex leaf the leaf, the run's instance of its query vertex and
// the store's vertices by id. It is one object a walk, so that an attempt's
// function holds it and the lane's scratch only; it holds the store rather
// than its arrays, and its counts behind one pointer, to fit the 128-byte size
// class, as every walk of a request allocates one.
type joinWalk struct {
	op                *JoinEmbeddings
	pairs, scan       *keyTest
	side, at, closing int
	counts            *walkCounts
	store             *epgm.Store

	edgeLeaf *FilterAndProjectEdges
	qe       *cypher.QueryEdge
	lists    []*epgm.Adjacency

	vertexLeaf *FilterAndProjectVertices
	qv         *cypher.QueryVertex
	positions  *epgm.Positions
}

// walkCounts is what a traced walk counts: the elements it read and the rows
// it made of them.
type walkCounts struct{ read, made atomic.Int64 }

// join writes the rows of o, a row of the other input, and its candidates.
func (jw *joinWalk) join(sc *scratch, o embedding.Embedding, emit func(embedding.Embedding)) {
	var n, m int64
	if jw.vertexLeaf != nil {
		qv, vertices := jw.qv, jw.store.Vertices
		for _, p := range jw.positions.Of(o.ID(jw.at)) {
			v := &vertices[p]
			n++
			if !jw.scan.keepsIDs(vertexIDs(*v)) || !jw.vertexLeaf.selects(qv, v) {
				continue
			}
			m++
			ids := [1]epgm.ID{v.ID}
			jw.pair(sc, o, sc.leaf.Row(ids[:], sc.project(v.Properties, jw.vertexLeaf.keys)), emit)
		}
	} else {
		qe, edges := jw.qe, jw.store.Edges
		for _, l := range jw.lists {
			for _, p := range l.Of(o.ID(jw.at)) {
				de := &edges[p]
				n++
				ids := [3]epgm.ID{de.Source, de.ID, de.Target}
				if !jw.scan.keepsIDs(ids) || jw.closing >= 0 && de.Target != o.ID(jw.closing) || !jw.edgeLeaf.selects(qe, de) {
					continue
				}
				m++
				jw.pair(sc, o, sc.leaf.Row(ids[:], sc.project(de.Properties, qe.Projection)), emit)
			}
		}
	}
	if jw.counts != nil {
		jw.counts.read.Add(n)
		jw.counts.made.Add(m)
	}
}

// pair writes the row of o and row, the leaf's row of a candidate, if the
// join keeps the pair.
func (jw *joinWalk) pair(sc *scratch, o, row embedding.Embedding, emit func(embedding.Embedding)) {
	op := jw.op
	left, right := o, row
	if jw.side == 0 {
		left, right = row, o
	}
	if sameKeys(left, right, op.leftCols, op.rightCols) && jw.pairs.keeps(left, right) &&
		sc.validPair(left, op.Left.Meta(), right, op.Right.Meta(), op.dropCols, op.Morph) {
		emit(sc.slab.Merge(left, right, op.keep))
	}
}
