package operators

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

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
// them is an edge leaf whose source or target the other binds - then the join
// walks the store's adjacency from the other input's rows and never runs the
// leaf (walk) - or a vertex leaf that the other, counted, turns out to be
// small against - then the small input is broadcast into the leaf's scan
// (probeInPlace). A join of
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
	// walks are how the join would walk its left and its right input, if it
	// is an edge leaf whose ends the other input binds.
	walks [2]edgeWalk
}

// NewJoinEmbeddings builds a join on the variables shared between the two
// inputs, whose rows carry what live reads. It panics if the inputs share no
// variables; the planner uses NewCartesianProduct for that case.
func NewJoinEmbeddings(left, right Operator, morph Morphism, live embedding.Live) *JoinEmbeddings {
	op := &JoinEmbeddings{Left: left, Right: right, Morph: morph, joinShape: newJoinShape(left, right),
		rowShape: newRowShape(left.Meta(), right.Meta(), live),
		walks:    [2]edgeWalk{newEdgeWalk(left, right), newEdgeWalk(right, left)}}
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
// that are not in a row yet (probeInPlace, keyTest.hasIDs).
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

// probeInPlaceScale is the rule that sends a join into a vertex leaf's scan:
// with n rows on the counted side, P partitions and m elements under the leaf, it
// probes in place if n x P x probeInPlaceScale < m - if every partition can
// hold the whole counted side in a table smaller than the leaf it would
// otherwise build, shuffle and hash. It is a constant, 1: nothing sets it but
// the tests that hold the two ways to join to the same rows, for which +Inf is
// never and 0 is whenever a leaf is eligible.
var probeInPlaceScale = 1.0

// scanLeaf is a leaf whose scan can test a key set: a vertex leaf or a
// directed non-loop edge leaf, which make one row an element whose key is the
// element's.
type scanLeaf interface {
	Operator
	// scan is the leaf's scan in r, testing test's key sets if there is one
	// (scanRows).
	scan(r *Run, test *keyTest) *dataflow.Dataset[embedding.Embedding]
}

// soleLeaf returns the vertex leaf a join's input is, if the join is its only
// consumer and may probe it in place: bare or behind a Cached wrapper no Alias
// shares. A leaf other consumers need materialized is scanned once for all of
// them.
func soleLeaf(op Operator) *FilterAndProjectVertices {
	if c, ok := op.(*Cached); ok && !c.shared {
		op = c.Inner
	}
	leaf, _ := op.(*FilterAndProjectVertices)
	return leaf
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

// inPlaceCandidate names the input the join would probe in place, if it has
// one: a vertex leaf over a pinned store, consumed here only, whose other
// input has a predicate below it or a scan that tests a key set (tests,
// Run.route) - without one nothing says the other side is small, and the
// count that would tell is a collective. The planner puts the input it
// expects to be smaller on the left, so the right one is tried first. A join
// that hands on key sets runs one input first to filter the other, so it has
// none, and a leaf whose scan tests a set is small already: it is scanned.
func (op *JoinEmbeddings) inPlaceCandidate(r *Run, tests [2]*keyTest) (leaf *FilterAndProjectVertices, onLeft bool) {
	if len(op.sets) > 0 {
		return nil, false
	}
	if op.Left.Selective() || tests[0] != nil {
		if leaf := soleLeaf(op.Right); leaf != nil && tests[1] == nil && leaf.scanned(r) > 0 {
			return leaf, false
		}
	}
	if op.Right.Selective() || tests[1] != nil {
		if leaf := soleLeaf(op.Left); leaf != nil && tests[0] == nil && leaf.scanned(r) > 0 {
			return leaf, true
		}
	}
	return nil, false
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
			return op.walk(r, side, rows, pairs)
		})
	}
	leaf, onLeft := op.inPlaceCandidate(r, tests)
	if leaf == nil {
		left := r.input(op.Left, tests[0])
		right := r.input(op.Right, tests[1])
		return traced(op, r, func() *dataflow.Dataset[embedding.Embedding] {
			return op.join(r, left, right, pairs)
		})
	}
	// The other input runs first and is counted; what the count says decides
	// whether the leaf runs at all. Either way the counted rows are handed on
	// as they are.
	scan, other, test := op.Right, op.Left, tests[0] // the leaf as the plan has it, wrapper and all
	if onLeft {
		scan, other, test = op.Left, op.Right, tests[1]
	}
	small := r.input(other, test)
	return traced(op, r, func() *dataflow.Dataset[embedding.Embedding] {
		// Every input of the decision is the same number in every process of
		// the job: n is counted over all of them, m is read off the store.
		n, m := small.CountAll(), leaf.scanned(r)
		c := r.env.Tracer()
		if float64(n)*float64(r.env.Workers())*probeInPlaceScale < float64(m) {
			if c != nil {
				c.Note(op, fmt.Sprintf("broadcast n=%d", n))
			}
			return op.probeInPlace(r, small, leaf, onLeft, pairs)
		}
		if c != nil {
			c.Note(op, fmt.Sprintf("repartition n=%d m=%d", n, m))
		}
		rows := scan.Evaluate(r) // a scope of its own inside this one
		if onLeft {
			return op.join(r, rows, small, pairs)
		}
		return op.join(r, small, rows, pairs)
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

// probeInPlace joins small with a vertex leaf that has not run: small is broadcast
// and hashed in every partition, the leaf's elements probe the table where the
// store holds them, and the leaf's label test, predicates, projection and row
// run for an element whose key is in it - so a row is built for an element
// that joins, and for no other. What is done with the pair is what join does.
// Rows come out in scan order and carry no partition tag; without ORDER BY a
// result is a bag. The leaf is reported to a tracer as evaluated, with the
// rows it built. The pairs pass the key test pairs.
func (op *JoinEmbeddings) probeInPlace(run *Run, small *dataflow.Dataset[embedding.Embedding], leaf *FilterAndProjectVertices, onLeft bool, pairs *keyTest) *dataflow.Dataset[embedding.Embedding] {
	lc, rc := op.leftCols, op.rightCols
	drop, keep := op.dropCols, op.keep
	lm, rm := op.Left.Meta(), op.Right.Meta()
	morph := op.Morph
	smallCols := lc
	if onLeft {
		smallCols = rc
	}
	defer noteDropped(run, op, pairs)
	c := run.env.Tracer()
	var built *atomic.Int64
	if c != nil {
		built = new(atomic.Int64)
	}
	out := leaf.probe(run, small, smallCols, func(sc *scratch, small, row embedding.Embedding, emit func(embedding.Embedding)) {
		l, r := small, row
		if onLeft {
			l, r = row, small
		}
		if sameKeys(l, r, lc, rc) && pairs.keeps(l, r) && sc.validPair(l, lm, r, rm, drop, morph) {
			emit(sc.slab.Merge(l, r, keep))
		}
	}, built)
	if c != nil {
		c.InOp(leaf, run.label(leaf), built.Load)
		c.Note(leaf, fmt.Sprintf("probed in place: scanned=%d", leaf.scanned(run)))
	}
	return out
}

// pairFunc is what a join does with a candidate pair: small is the broadcast
// side's row, row the one the leaf made.
type pairFunc func(sc *scratch, small, row embedding.Embedding, emit func(embedding.Embedding))

func (op *FilterAndProjectVertices) scanned(r *Run) int64 { return r.vertexScan(op).Pinned }

// probe joins small, keyed by its columns smallCols, with the leaf's vertices
// in r and hands every pair of a small row and the leaf's row of a matching
// vertex to pair - per part of the scan, small broadcast and the part's
// vertices probing it. The row of the vertex under the probe is made once and
// kept while the probe walks that vertex's key matches, so a vertex that joins
// k rows of the small side is tested and built once, not k times. The rows it
// made are added to built, if there is one.
func (op *FilterAndProjectVertices) probe(r *Run, small *dataflow.Dataset[embedding.Embedding], smallCols []int, pair pairFunc, built *atomic.Int64) *dataflow.Dataset[embedding.Embedding] {
	qv := r.vertex(op.Vertex)
	smallKey := func(e embedding.Embedding) uint64 { return keyOf(e, smallCols) }
	// The row's one column is the vertex.
	key := func(v epgm.Vertex) uint64 { return mixKey(keySeed, v.ID) }
	newJoiner := func(lane *dataflow.Lane) func(embedding.Embedding, epgm.Vertex, func(embedding.Embedding)) {
		sc := scratchOf(lane)
		var st struct {
			id   epgm.ID
			row  embedding.Embedding
			ok   bool // the vertex has a row
			seen bool // id, row and ok are some vertex's
		}
		return func(s embedding.Embedding, v epgm.Vertex, emit func(embedding.Embedding)) {
			if !st.seen || st.id != v.ID {
				st.id, st.seen = v.ID, true
				if st.row, st.ok = op.row(sc, qv, &v); st.ok && built != nil {
					built.Add(1)
				}
			}
			if st.ok {
				pair(sc, s, st.row, emit)
			}
		}
	}
	return perPart(r.vertexScan(op), func(part *dataflow.Dataset[epgm.Vertex]) *dataflow.Dataset[embedding.Embedding] {
		return dataflow.JoinWith(small, part, smallKey, key, newJoiner, dataflow.BroadcastLeft, 0)
	})
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
