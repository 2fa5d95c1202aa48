package operators

import (
	"fmt"
	"sort"
	"strings"

	"gradoop/internal/dataflow"
	"gradoop/internal/embedding"
	"gradoop/internal/epgm"
)

// joinShape is what a join of two inputs reads off their metadata, the same
// for an inner, an outer, a semi and a cross join: the variables both bind,
// sorted - a canonical order makes the shuffle key deterministic for a
// variable set, enabling partition reuse across joins on the same variables -
// with their columns on either side, and the right columns that repeat the
// left's bindings and stay out of the morphism check. It also carries the
// join's Selective bit: a predicate under either input. A join that writes
// rows has a row shape too (rowShape).
type joinShape struct {
	joinVars  []string
	leftCols  []int
	rightCols []int
	dropCols  []int
	selective bool
}

// Selective implements Operator for the joins that embed the shape.
func (sh *joinShape) Selective() bool { return sh.selective }

func newJoinShape(left, right Operator) joinShape {
	lm, rm := left.Meta(), right.Meta()
	sh := joinShape{joinVars: lm.SharedVars(rm), selective: left.Selective() || right.Selective()}
	sort.Strings(sh.joinVars)
	sh.leftCols = make([]int, len(sh.joinVars))
	sh.rightCols = make([]int, len(sh.joinVars))
	for i, v := range sh.joinVars {
		sh.leftCols[i], _ = lm.Column(v)
		sh.rightCols[i], _ = rm.Column(v)
	}
	for c := 0; c < rm.Columns(); c++ {
		if lm.HasVar(rm.Var(c)) {
			sh.dropCols = append(sh.dropCols, c)
		}
	}
	return sh
}

// rowShape is what an operator that writes rows of two inputs - a join, an
// outer join, a cartesian product, an expansion - writes: the metadata of its
// rows and the keep-mask it writes them with, which leaves out every column
// the rest of the query does not read - the planner's embedding.Live, nil for
// every column (embedding.Meta.Merge) - and the names of what it leaves out,
// for its Description.
type rowShape struct {
	outputMeta *embedding.Meta
	keep       embedding.Keep
	dropped    string
}

func newRowShape(lm, rm *embedding.Meta, live embedding.Live) rowShape {
	out, keep := lm.Merge(rm, live)
	return rowShape{outputMeta: out, keep: keep, dropped: dropNote(out, lm, rm)}
}

// dropNote names the variables and properties of two inputs that out does not
// carry, as a Description shows them (", drop=a,e,a.name"), or is empty.
func dropNote(out, lm, rm *embedding.Meta) string {
	var names []string
	for _, in := range [2]*embedding.Meta{lm, rm} {
		for c := 0; c < in.Columns(); c++ {
			if v := in.Var(c); !out.HasVar(v) && (in == lm || !lm.HasVar(v)) {
				names = append(names, v)
			}
		}
		for i := 0; i < in.PropColumns(); i++ {
			if p := in.PropRefAt(i); !out.HasProp(p.Var, p.Key) {
				names = append(names, p.Var+"."+p.Key)
			}
		}
	}
	if len(names) == 0 {
		return ""
	}
	return ", drop=" + strings.Join(names, ",")
}

// JoinEmbeddings combines two sub-query results on their shared variables.
// It uses a flat join (§3.1): a joined embedding is emitted only if the
// configured morphism semantics hold, avoiding a separate filter stage.
//
// How it joins is a fact of its inputs, not a setting: both are shuffled by
// key and hashed partition by partition, unless, over a pinned store, one of
// them is a leaf the join reads where the store holds it - an edge leaf whose
// source or target the other binds, walked off the store's adjacency, or a
// vertex leaf, looked up by the id the other binds - from the other input's
// rows, never running the leaf (walk). A join of
// a query's mandatory pattern that closes a cycle hands the keys of the input
// it runs first to the joins and expansions below the other, which drop a
// pair, an input row or a path that cannot join here before it is written
// (PlaceKeySets, keyset.go); a join given a set tests it in the scan of an
// input leaf that binds its variables, if it has one (Run.route).
type JoinEmbeddings struct {
	Left, Right Operator
	Morph       Morphism

	joinShape
	rowShape

	// sets are the key sets the join hands on, in the order a run makes them;
	// none if it hands on nothing. If the first is a leaf's, not the left
	// input's, the join runs its right input first (PlaceKeySets).
	sets []KeySet
	// walks are how the join would read its left and its right input where
	// the store holds it, if it is a leaf it can (leafWalk).
	walks [2]leafWalk
}

// NewJoinEmbeddings builds a join on the variables shared between the two
// inputs, whose rows carry what live reads. It panics if the inputs share no
// variables; the planner uses NewCartesianProduct for that case.
func NewJoinEmbeddings(left, right Operator, morph Morphism, live embedding.Live) *JoinEmbeddings {
	op := &JoinEmbeddings{Left: left, Right: right, Morph: morph, joinShape: newJoinShape(left, right),
		rowShape: newRowShape(left.Meta(), right.Meta(), live),
		walks:    [2]leafWalk{newLeafWalk(left, right), newLeafWalk(right, left)}}
	if len(op.joinVars) == 0 {
		panic("operators: JoinEmbeddings requires shared variables")
	}
	return op
}

// Meta implements Operator.
func (op *JoinEmbeddings) Meta() *embedding.Meta { return op.outputMeta }

// Children implements Operator.
func (op *JoinEmbeddings) Children() []Operator { return []Operator{op.Left, op.Right} }

// Description implements Operator.
func (op *JoinEmbeddings) Description() string {
	return fmt.Sprintf("JoinEmbeddings(on=%s, %s/%s%s)",
		strings.Join(op.joinVars, ","), op.Morph.Vertex, op.Morph.Edge, op.dropped)
}

// keyOf combines the identifiers at the join columns into one shuffle key.
func keyOf(e embedding.Embedding, cols []int) uint64 {
	h := keySeed
	for _, c := range cols {
		h = mixKey(h, e.ID(c))
	}
	return h
}

// keySeed and mixKey are keyOf taken apart, for a key made of identifiers
// that are not in a row yet (keyTest.hasIDs, reach.from).
const keySeed uint64 = 0x9e3779b97f4a7c15

func mixKey(h uint64, id epgm.ID) uint64 {
	h = (h ^ uint64(id)) * 0x100000001b3
	return h ^ h>>29
}

// sameKeys verifies actual id equality at the join columns (guarding
// against hash collisions).
func sameKeys(l, r embedding.Embedding, lc, rc []int) bool {
	for i := range lc {
		if l.ID(lc[i]) != r.ID(rc[i]) {
			return false
		}
	}
	return true
}

// partitionTag derives the partition-reuse tag for a join variable set: two
// joins on the same variables shuffle identically, so the second can reuse
// the first's partitioning.
func partitionTag(vars []string) uint64 {
	return dataflow.HashString(strings.Join(vars, "\x00")) | 1
}

// scanLeaf is a leaf whose scan can test a key set: a vertex leaf or a
// directed non-loop edge leaf, which make one row an element whose key is the
// element's.
type scanLeaf interface {
	Operator
	// scan is the leaf's scan in r, testing test's key sets if there is one
	// (scanRows).
	scan(r *Run, test *keyTest) *dataflow.Dataset[embedding.Embedding]
}

// keyedLeaf returns op if it is a leaf whose rows are keyed by their element:
// a vertex leaf or a directed non-loop edge leaf.
func keyedLeaf(op Operator) scanLeaf {
	switch leaf := op.(type) {
	case *FilterAndProjectVertices:
		return leaf
	case *FilterAndProjectEdges:
		if !leaf.loop && !leaf.Edge.Undirected {
			return leaf
		}
	}
	return nil
}

// Evaluate implements Operator.
func (op *JoinEmbeddings) Evaluate(r *Run) *dataflow.Dataset[embedding.Embedding] {
	tests, pairs, _ := r.route(op)
	switch {
	case op.RightFirst():
		// The leaf runs first - its Cached keeps the rows for the left input -
		// then the right input with the leaf's keys, then the left input with
		// the right one's.
		leaf := op.sets[0].Source
		seeds := leaf.Evaluate(r)
		return traced(op, r, func() *dataflow.Dataset[embedding.Embedding] {
			right := r.handOn(op, leaf, seeds, op.Right)
			return op.join(r, r.handOn(op, op.Right, right, op.Left), right, pairs)
		})
	case len(op.sets) > 0:
		left := op.Left.Evaluate(r)
		return traced(op, r, func() *dataflow.Dataset[embedding.Embedding] {
			return op.join(r, left, r.handOn(op, op.Left, left, op.Right), pairs)
		})
	}
	if side, ok := op.walked(r, tests); ok {
		other := op.Left
		if side == 0 {
			other = op.Right
		}
		rows := r.input(other, tests[1-side])
		return traced(op, r, func() *dataflow.Dataset[embedding.Embedding] {
			return op.walk(r, side, rows, pairs, tests[side])
		})
	}
	left := r.input(op.Left, tests[0])
	right := r.input(op.Right, tests[1])
	return traced(op, r, func() *dataflow.Dataset[embedding.Embedding] {
		return op.join(r, left, right, pairs)
	})
}

// join is the repartition hash join of the two evaluated inputs in run,
// whose pairs pass the key test pairs.
func (op *JoinEmbeddings) join(run *Run, left, right *dataflow.Dataset[embedding.Embedding], pairs *keyTest) *dataflow.Dataset[embedding.Embedding] {
	lc, rc := op.leftCols, op.rightCols
	drop, keep := op.dropCols, op.keep
	lm, rm := op.Left.Meta(), op.Right.Meta()
	morph := op.Morph
	defer noteDropped(run, op, pairs)
	return dataflow.JoinWith(left, right,
		func(e embedding.Embedding) uint64 { return keyOf(e, lc) },
		func(e embedding.Embedding) uint64 { return keyOf(e, rc) },
		func(lane *dataflow.Lane) func(l, r embedding.Embedding, emit func(embedding.Embedding)) {
			sc := scratchOf(lane)
			return func(l, r embedding.Embedding, emit func(embedding.Embedding)) {
				// Keys, the run's key sets at this join and morphism are
				// checked on the two inputs: a rejected candidate is never
				// materialized.
				if sameKeys(l, r, lc, rc) && pairs.keeps(l, r) && sc.validPair(l, lm, r, rm, drop, morph) {
					emit(sc.slab.Merge(l, r, keep))
				}
			}
		}, dataflow.RepartitionHash, partitionTag(op.joinVars))
}

// CartesianProduct combines two sub-queries without shared variables. It
// broadcasts the (expectedly smaller) left input, which is how a dataflow
// system realizes a cross join.
type CartesianProduct struct {
	Left, Right Operator
	Morph       Morphism

	joinShape // of two inputs that share no variable
	rowShape
}

// NewCartesianProduct builds a cross join whose rows carry what live reads.
func NewCartesianProduct(left, right Operator, morph Morphism, live embedding.Live) *CartesianProduct {
	return &CartesianProduct{Left: left, Right: right, Morph: morph, joinShape: newJoinShape(left, right),
		rowShape: newRowShape(left.Meta(), right.Meta(), live)}
}

// Meta implements Operator.
func (op *CartesianProduct) Meta() *embedding.Meta { return op.outputMeta }

// Children implements Operator.
func (op *CartesianProduct) Children() []Operator { return []Operator{op.Left, op.Right} }

// Description implements Operator.
func (op *CartesianProduct) Description() string {
	if op.dropped == "" {
		return "CartesianProduct"
	}
	return "CartesianProduct(" + strings.TrimPrefix(op.dropped, ", ") + ")"
}

// Evaluate implements Operator.
func (op *CartesianProduct) Evaluate(r *Run) *dataflow.Dataset[embedding.Embedding] {
	left := op.Left.Evaluate(r)
	right := op.Right.Evaluate(r)
	lm, rm := op.Left.Meta(), op.Right.Meta()
	morph, keep := op.Morph, op.keep
	return traced(op, r, func() *dataflow.Dataset[embedding.Embedding] {
		return dataflow.JoinWith(left, right,
			func(embedding.Embedding) uint64 { return 0 },
			func(embedding.Embedding) uint64 { return 0 },
			func(lane *dataflow.Lane) func(l, r embedding.Embedding, emit func(embedding.Embedding)) {
				sc := scratchOf(lane)
				return func(l, r embedding.Embedding, emit func(embedding.Embedding)) {
					if sc.validPair(l, lm, r, rm, nil, morph) {
						emit(sc.slab.Merge(l, r, keep))
					}
				}
			}, dataflow.BroadcastLeft, 0)
	})
}
