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
// for an inner, an outer and a semi join: the variables both bind, sorted -
// a canonical order makes the shuffle key deterministic for a variable set,
// enabling partition reuse across joins on the same variables - with their
// columns on either side, the right columns a merged row leaves out because
// the left already has them, and the merged row's metadata. It also carries
// the join's Selective bit: a predicate under either input.
type joinShape struct {
	joinVars   []string
	leftCols   []int
	rightCols  []int
	dropCols   []int
	outputMeta *embedding.Meta
	selective  bool
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
	sh.outputMeta, sh.dropCols = lm.Merge(rm)
	return sh
}

// JoinEmbeddings combines two sub-query results on their shared variables.
// It uses a flat join (§3.1): a joined embedding is emitted only if the
// configured morphism semantics hold, avoiding a separate filter stage.
//
// How it joins is a fact of its inputs, not a setting: both are shuffled by
// key and hashed partition by partition, unless one of them is a leaf over a
// pinned store that the other, counted, turns out to be small against - then
// the small input is broadcast into the leaf's scan (probeInPlace).
type JoinEmbeddings struct {
	Left, Right Operator
	Morph       Morphism

	joinShape
}

// NewJoinEmbeddings builds a join on the variables shared between the two
// inputs. It panics if the inputs share no variables; the planner uses
// NewCartesianProduct for that case.
func NewJoinEmbeddings(left, right Operator, morph Morphism) *JoinEmbeddings {
	op := &JoinEmbeddings{Left: left, Right: right, Morph: morph, joinShape: newJoinShape(left, right)}
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
	return fmt.Sprintf("JoinEmbeddings(on=%s, %s/%s)",
		strings.Join(op.joinVars, ","), op.Morph.Vertex, op.Morph.Edge)
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
// that are not in a row yet (probeInPlace).
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

// probeInPlaceScale is the rule that sends a join into a leaf's scan: with n
// rows on the counted side, P partitions and m elements under the leaf, it
// probes in place if n x P x probeInPlaceScale < m - if every partition can
// hold the whole counted side in a table smaller than the leaf it would
// otherwise build, shuffle and hash. It is a constant, 1: nothing sets it but
// the tests that hold the two ways to join to the same rows, for which +Inf is
// never and 0 is whenever a leaf is eligible.
var probeInPlaceScale = 1.0

// inPlaceLeaf is a leaf operator whose rows a join can make itself, inside
// its probe loop, of the elements the leaf would have scanned.
type inPlaceLeaf interface {
	Operator
	// scanned is the number of elements the leaf reads over all processes of
	// the job, 0 if they are not ranges of a pinned store - the only input
	// whose size every process knows without asking the others.
	scanned() int64
	// probe joins small, keyed by its columns smallCols, with the leaf's
	// elements, keyed by the identifiers its row would have at leafCols, and
	// hands every pair of a small row and the leaf's row of a matching element
	// to pair. The rows it made are added to built, if there is one.
	probe(small *dataflow.Dataset[embedding.Embedding], smallCols, leafCols []int, pair pairFunc, built *atomic.Int64) *dataflow.Dataset[embedding.Embedding]
}

// pairFunc is what a join does with a candidate pair: small is the broadcast
// side's row, row the one the leaf made.
type pairFunc func(sc *scratch, small, row embedding.Embedding, emit func(embedding.Embedding))

// soleLeaf returns the leaf a join's input is, if the join is its only
// consumer and may probe it in place: a vertex leaf or a directed non-loop
// edge leaf - those make one row per element, so their key is the element's -
// bare or behind a Cached wrapper no Alias shares. A leaf other consumers need
// materialized is scanned once for all of them.
func soleLeaf(op Operator) inPlaceLeaf {
	if c, ok := op.(*Cached); ok && !c.shared {
		op = c.Inner
	}
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
// one: a leaf over a pinned store, consumed here only, whose other input has
// a predicate below it - without one nothing says the other side is small, and
// the count that would tell is a collective. The planner puts the input it
// expects to be smaller on the left, so the right one is tried first.
func (op *JoinEmbeddings) inPlaceCandidate() (leaf inPlaceLeaf, onLeft bool) {
	if op.Left.Selective() {
		if leaf := soleLeaf(op.Right); leaf != nil && leaf.scanned() > 0 {
			return leaf, false
		}
	}
	if op.Right.Selective() {
		if leaf := soleLeaf(op.Left); leaf != nil && leaf.scanned() > 0 {
			return leaf, true
		}
	}
	return nil, false
}

// Evaluate implements Operator.
func (op *JoinEmbeddings) Evaluate() *dataflow.Dataset[embedding.Embedding] {
	leaf, onLeft := op.inPlaceCandidate()
	if leaf == nil {
		left := op.Left.Evaluate()
		right := op.Right.Evaluate()
		return traced(op, left.Env(), func() *dataflow.Dataset[embedding.Embedding] {
			return op.join(left, right)
		})
	}
	// The other input runs first and is counted; what the count says decides
	// whether the leaf runs at all. Either way the counted rows are handed on
	// as they are.
	scan, other := op.Right, op.Left // the leaf as the plan has it, wrapper and all
	if onLeft {
		scan, other = op.Left, op.Right
	}
	small := other.Evaluate()
	env := small.Env()
	return traced(op, env, func() *dataflow.Dataset[embedding.Embedding] {
		// Every input of the decision is the same number in every process of
		// the job: n is counted over all of them, m is read off the store.
		n, m := small.CountAll(), leaf.scanned()
		c := env.Tracer()
		if float64(n)*float64(env.Workers())*probeInPlaceScale < float64(m) {
			if c != nil {
				c.Note(op, fmt.Sprintf("broadcast n=%d", n))
			}
			return op.probeInPlace(small, leaf, onLeft)
		}
		if c != nil {
			c.Note(op, fmt.Sprintf("repartition n=%d m=%d", n, m))
		}
		rows := scan.Evaluate() // a scope of its own inside this one
		if onLeft {
			return op.join(rows, small)
		}
		return op.join(small, rows)
	})
}

// join is the repartition hash join of the two evaluated inputs.
func (op *JoinEmbeddings) join(left, right *dataflow.Dataset[embedding.Embedding]) *dataflow.Dataset[embedding.Embedding] {
	lc, rc := op.leftCols, op.rightCols
	drop := op.dropCols
	lm, rm := op.Left.Meta(), op.Right.Meta()
	morph := op.Morph
	return dataflow.JoinWith(left, right,
		func(e embedding.Embedding) uint64 { return keyOf(e, lc) },
		func(e embedding.Embedding) uint64 { return keyOf(e, rc) },
		func(lane *dataflow.Lane) func(l, r embedding.Embedding, emit func(embedding.Embedding)) {
			sc := scratchOf(lane)
			return func(l, r embedding.Embedding, emit func(embedding.Embedding)) {
				// Keys and morphism are checked on the two inputs: a rejected
				// candidate is never materialized.
				if sameKeys(l, r, lc, rc) && sc.validPair(l, lm, r, rm, drop, morph) {
					emit(sc.slab.Merge(l, r, drop))
				}
			}
		}, dataflow.RepartitionHash, partitionTag(op.joinVars))
}

// probeInPlace joins small with a leaf that has not run: small is broadcast
// and hashed in every partition, the leaf's elements probe the table where the
// store holds them, and the leaf's label test, predicates, projection and row
// run for an element whose key is in it - so a row is built for an element
// that joins, and for no other. What is done with the pair is what join does.
// Rows come out in scan order and carry no partition tag; without ORDER BY a
// result is a bag. The leaf is reported to a tracer as evaluated, with the
// rows it built.
func (op *JoinEmbeddings) probeInPlace(small *dataflow.Dataset[embedding.Embedding], leaf inPlaceLeaf, onLeft bool) *dataflow.Dataset[embedding.Embedding] {
	lc, rc := op.leftCols, op.rightCols
	drop := op.dropCols
	lm, rm := op.Left.Meta(), op.Right.Meta()
	morph := op.Morph
	smallCols, leafCols := lc, rc
	if onLeft {
		smallCols, leafCols = rc, lc
	}
	c := small.Env().Tracer()
	var built *atomic.Int64
	if c != nil {
		built = new(atomic.Int64)
	}
	out := leaf.probe(small, smallCols, leafCols, func(sc *scratch, small, row embedding.Embedding, emit func(embedding.Embedding)) {
		l, r := small, row
		if onLeft {
			l, r = row, small
		}
		if sameKeys(l, r, lc, rc) && sc.validPair(l, lm, r, rm, drop, morph) {
			emit(sc.slab.Merge(l, r, drop))
		}
	}, built)
	if c != nil {
		c.InOp(leaf, leaf.Description(), built.Load)
		c.Note(leaf, fmt.Sprintf("probed in place: scanned=%d", leaf.scanned()))
	}
	return out
}

// probeScan is the stage pair behind every leaf's probe - per part of the scan,
// small broadcast and the part's elements probing it - and its joiner: the row
// of the element under the probe is made once and kept while the probe walks
// that element's key matches, so an element that joins k rows of the small
// side is tested and built once, not k times. key, id and row are the leaf's:
// an element's join key, its identifier and its row, if it has one.
func probeScan[T any](small *dataflow.Dataset[embedding.Embedding], smallCols []int, in epgm.Scan[T],
	key func(T) uint64, id func(T) epgm.ID, row func(*scratch, T) (embedding.Embedding, bool),
	pair pairFunc, built *atomic.Int64) *dataflow.Dataset[embedding.Embedding] {
	smallKey := func(e embedding.Embedding) uint64 { return keyOf(e, smallCols) }
	newJoiner := func(lane *dataflow.Lane) func(embedding.Embedding, T, func(embedding.Embedding)) {
		sc := scratchOf(lane)
		var st struct {
			id   epgm.ID
			row  embedding.Embedding
			ok   bool // the element has a row
			seen bool // id, row and ok are some element's
		}
		return func(s embedding.Embedding, t T, emit func(embedding.Embedding)) {
			if eid := id(t); !st.seen || st.id != eid {
				st.id, st.seen = eid, true
				if st.row, st.ok = row(sc, t); st.ok && built != nil {
					built.Add(1)
				}
			}
			if st.ok {
				pair(sc, s, st.row, emit)
			}
		}
	}
	return perPart(in, func(part *dataflow.Dataset[T]) *dataflow.Dataset[embedding.Embedding] {
		return dataflow.JoinWith(small, part, smallKey, key, newJoiner, dataflow.BroadcastLeft, 0)
	})
}

func (op *FilterAndProjectVertices) scanned() int64 { return op.In.Pinned }

func (op *FilterAndProjectVertices) probe(small *dataflow.Dataset[embedding.Embedding], smallCols, _ []int, pair pairFunc, built *atomic.Int64) *dataflow.Dataset[embedding.Embedding] {
	// The row's one column is the vertex.
	return probeScan(small, smallCols, op.In,
		func(v epgm.Vertex) uint64 { return mixKey(keySeed, v.ID) },
		func(v epgm.Vertex) epgm.ID { return v.ID },
		func(sc *scratch, v epgm.Vertex) (embedding.Embedding, bool) { return op.row(sc, &v) },
		pair, built)
}

func (op *FilterAndProjectEdges) scanned() int64 { return op.In.Pinned }

func (op *FilterAndProjectEdges) probe(small *dataflow.Dataset[embedding.Embedding], smallCols, leafCols []int, pair pairFunc, built *atomic.Int64) *dataflow.Dataset[embedding.Embedding] {
	// The row's columns are source, edge, target.
	return probeScan(small, smallCols, op.In,
		func(de epgm.Edge) uint64 {
			ids := [3]epgm.ID{de.Source, de.ID, de.Target}
			h := keySeed
			for _, c := range leafCols {
				h = mixKey(h, ids[c])
			}
			return h
		},
		func(de epgm.Edge) epgm.ID { return de.ID },
		func(sc *scratch, de epgm.Edge) (embedding.Embedding, bool) { return op.row(sc, &de, false) },
		pair, built)
}

// CartesianProduct combines two sub-queries without shared variables. It
// broadcasts the (expectedly smaller) left input, which is how a dataflow
// system realizes a cross join.
type CartesianProduct struct {
	Left, Right Operator
	Morph       Morphism

	outputMeta *embedding.Meta
	selective  bool
}

// NewCartesianProduct builds a cross join.
func NewCartesianProduct(left, right Operator, morph Morphism) *CartesianProduct {
	outputMeta, _ := left.Meta().Merge(right.Meta())
	return &CartesianProduct{Left: left, Right: right, Morph: morph, outputMeta: outputMeta,
		selective: left.Selective() || right.Selective()}
}

// Meta implements Operator.
func (op *CartesianProduct) Meta() *embedding.Meta { return op.outputMeta }

// Selective implements Operator.
func (op *CartesianProduct) Selective() bool { return op.selective }

// Children implements Operator.
func (op *CartesianProduct) Children() []Operator { return []Operator{op.Left, op.Right} }

// Description implements Operator.
func (op *CartesianProduct) Description() string { return "CartesianProduct" }

// Evaluate implements Operator.
func (op *CartesianProduct) Evaluate() *dataflow.Dataset[embedding.Embedding] {
	left := op.Left.Evaluate()
	right := op.Right.Evaluate()
	lm, rm := op.Left.Meta(), op.Right.Meta()
	morph := op.Morph
	return traced(op, left.Env(), func() *dataflow.Dataset[embedding.Embedding] {
		return dataflow.JoinWith(left, right,
			func(embedding.Embedding) uint64 { return 0 },
			func(embedding.Embedding) uint64 { return 0 },
			func(lane *dataflow.Lane) func(l, r embedding.Embedding, emit func(embedding.Embedding)) {
				sc := scratchOf(lane)
				return func(l, r embedding.Embedding, emit func(embedding.Embedding)) {
					if sc.validPair(l, lm, r, rm, nil, morph) {
						emit(sc.slab.Merge(l, r, nil))
					}
				}
			}, dataflow.BroadcastLeft, 0)
	})
}
