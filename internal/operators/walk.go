package operators

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"gradoop/internal/cypher"
	"gradoop/internal/dataflow"
	"gradoop/internal/embedding"
	"gradoop/internal/epgm"
)

// walk evaluates the expansion over a pinned store (DESIGN decision 41): one
// partition-local stage that walks the store's adjacency depth first from
// every input row in a seed set and hands each path of an admissible length
// to finish. It prunes with hopAllowed and tests the end sets where the bulk
// iteration does, so it writes the same rows, but no edge set is selected,
// shuffled or hashed and no hop's path states are shuffled or materialized: a
// via list is written once, into the row of a path that is kept. It has no
// collective, so every process of a job walks its own partitions' rows alone.
// A tracer is told how many edges the walk visited.
func (op *ExpandEmbeddings) walk(r *Run, qe *cypher.QueryEdge, store *epgm.Store,
	in *dataflow.Dataset[embedding.Embedding], seeds, ends *keyTest) *dataflow.Dataset[embedding.Embedding] {
	// A reverse expansion walks the edges from their target; an undirected one
	// walks them both ways, whichever end the path starts from.
	lists := store.Adjacency(qe.Types, op.Reverse)
	if qe.Undirected {
		lists = append(store.Adjacency(qe.Types, false), store.Adjacency(qe.Types, true)...)
	}
	c := r.env.Tracer()
	var visited *atomic.Int64
	if c != nil {
		visited = new(atomic.Int64)
	}
	out := dataflow.FlatMapPolled(in, func(lane *dataflow.Lane) func(embedding.Embedding, func(embedding.Embedding), func() bool) {
		w := walker{op: op, qe: qe, edges: store.Edges, lists: lists, ends: ends, sc: scratchOf(lane)}
		// The stack and the via list are the lane's: allocated once a lane, deep
		// enough for a path of up to DefaultMaxHops hops, instead of grown from
		// empty by the first rows; a deeper walk grows them.
		if depth := min(qe.MaxHops, cypher.DefaultMaxHops) + 1; cap(w.sc.frames) < depth {
			w.sc.frames, w.sc.via = make([]walkFrame, 0, depth), make([]epgm.ID, 0, 2*depth)
		}
		return func(e embedding.Embedding, emit func(embedding.Embedding), poll func() bool) {
			if !seeds.keeps(e, e) {
				return
			}
			if n := w.from(e, emit, poll); visited != nil {
				visited.Add(n)
			}
		}
	})
	if c != nil {
		c.Note(op, fmt.Sprintf("walked in place: edges=%d", visited.Load()))
	}
	return out
}

// walker is what one partition attempt of a walk reads: the run's instance of
// the query edge, the store's edge array and the adjacency lists a hop may
// take, in order.
type walker struct {
	op    *ExpandEmbeddings
	qe    *cypher.QueryEdge
	edges []epgm.Edge
	lists []*epgm.Adjacency
	ends  *keyTest
	sc    *scratch
}

// walkFrame is one vertex on the walk's stack: the far end of the path's last
// hop, the list it opens next and what is left of the one it reads - the
// positions of edges in the store's array, and whether the list keyed them
// by their target.
type walkFrame struct {
	at   epgm.ID
	list int
	pos  []int32
	in   bool
}

// viaLen is the length of the via list of a path of hops hops: its edges and
// the vertices between them.
func viaLen(hops int) int { return max(2*hops-1, 0) }

// from walks the paths that start at input row e and reports how many edges
// it visited. The stack and the via list are the lane's, rewritten for every
// row. It polls once per visited edge and stops as soon as the attempt is
// dead.
func (w *walker) from(e embedding.Embedding, emit func(embedding.Embedding), poll func() bool) (visited int64) {
	op, qe, sc := w.op, w.qe, w.sc
	start := e.ID(op.startCol)
	if qe.MinHops == 0 {
		op.finish(sc, pathState{base: e, end: start}, w.ends, emit)
	}
	if qe.MaxHops == 0 {
		return 0
	}
	frames := append(sc.frames[:0], walkFrame{at: start})
	via := sc.via[:0]
	for len(frames) > 0 {
		top := &frames[len(frames)-1]
		if len(top.pos) == 0 {
			if top.list == len(w.lists) {
				frames = frames[:len(frames)-1]
			} else {
				l := w.lists[top.list]
				top.pos, top.in = l.Of(top.at), l.In
				top.list++
			}
			continue
		}
		de := &w.edges[top.pos[0]]
		top.pos = top.pos[1:]
		visited++
		if !poll() {
			break
		}
		if len(qe.Predicates) > 0 && !cypher.EvalElement(qe.Predicates, qe.Var, de.Properties) {
			continue
		}
		far := de.Target
		if top.in {
			far = de.Source
		}
		// The path so far ends at top.at after one hop per frame below it.
		hops := len(frames) - 1
		via = via[:viaLen(hops)]
		if !op.hopAllowed(pathState{base: e, via: via, end: top.at}, edgeTriple{S: top.at, E: de.ID, T: far}) {
			continue
		}
		if hops > 0 {
			via = append(via, top.at)
		}
		via = append(via, de.ID)
		if hops+1 >= qe.MinHops {
			op.finish(sc, pathState{base: e, via: via, end: far}, w.ends, emit)
		}
		// Past the first hop the walk goes on from a vertex only if the end
		// set's transfer reached it in the hops a path has left from there.
		if hops+1 < qe.MaxHops && (w.ends == nil || w.ends.reach == nil || w.ends.reach.within(far, qe.MaxHops-hops-1)) {
			frames = append(frames, walkFrame{at: far})
		}
	}
	sc.frames, sc.via = frames, via
	return visited
}

// transfer is an end set transferred back across x's walk over the run's
// pinned store (DESIGN decision 44): from the vertex each of rows holds at col,
// a far end the set keeps, it walks x's edges - of its types, that pass its
// predicates - against x's direction, both ways if they are undirected, and
// keeps every vertex it reaches in MinHops to MaxHops hops, the far end itself
// at none. A path x may keep is such a walk read backwards, so every input row
// that starts one has its start vertex in the set: a seed set of the start
// vertex that drops only rows that start no path x keeps. Where x's input is a
// vertex leaf, only a vertex of the leaf's labels can start a row, and the set
// keeps no other. Each process walks from the rows of its own partitions, and
// the keys are all-gathered once (dataflow.Keys).
//
// It also returns what a walk from every key of ends, the end set, reaches:
// the fewest hops from each vertex to a key, which the expansion's walk reads
// to go no further than a vertex that reaches none in the hops it has left
// (reach.within). A memo is a partition's while the keys are made - a
// partition's keys are the same whichever process owns it - so this is a walk
// of its own, into the same memo, after the last partition's, and from the set
// every process holds: what it reaches, and so what the expansion walks, is
// the same in every process. It is made only where a path may end after its
// first hop (MinHops <= 1): the memo then holds every count of hops a path
// has left.
func (r *Run) transfer(x *ExpandEmbeddings, rows *dataflow.Dataset[embedding.Embedding], col int, ends *dataflow.KeySet) (*dataflow.KeySet, *reach) {
	w := r.newReach(x)
	each := func(e embedding.Embedding, keys []uint64) []uint64 { return w.from(e.ID(col), keys) }
	set := dataflow.Keys(rows, func() func(embedding.Embedding, []uint64) []uint64 {
		w.clear()
		return each
	})
	if r.env.Failed() || ends == nil || w.qe.MinHops > 1 {
		return set, nil
	}
	w.clear()
	w.memoOnly = true
	for k := range ends.All() {
		w.from(vertexOfKey(k), nil)
	}
	return set, w
}

// vertexOfKey is the vertex whose key, as a set of one vertex variable holds
// it, is k: mixKey(keySeed, v) undone. mixKey is an xor, a product with an odd
// constant and an xor-shift, each of which has an inverse, so a key names one
// vertex.
func vertexOfKey(k uint64) epgm.ID {
	h := k ^ k>>29 ^ k>>58
	return epgm.ID(h*mixInverse ^ keySeed)
}

// mixInverse is the inverse of mixKey's odd factor modulo 2^64, by Newton's
// iteration: each step doubles the bits that are right.
var mixInverse = func() uint64 {
	const f = 0x100000001b3
	inv := uint64(f)
	for range 6 {
		inv *= 2 - f*inv
	}
	return inv
}()

// clear forgets what the walk has walked.
func (w *reach) clear() {
	clear(w.least)
	clear(w.far)
	clear(w.below)
}

// newReach is what a transfer across x's walk in r walks with.
func (r *Run) newReach(x *ExpandEmbeddings) *reach {
	qe := r.edge(x.Edge)
	store := r.access.Store()
	lists := store.Adjacency(qe.Types, !x.Reverse)
	if qe.Undirected {
		lists = append(store.Adjacency(qe.Types, false), store.Adjacency(qe.Types, true)...)
	}
	w := &reach{qe: qe, edges: store.Edges, lists: lists, at: store.Positions()}
	w.stack = w.stackBuf[:0]
	if leaf, ok := Unwrap(x.In).(*FilterAndProjectVertices); ok && len(leaf.Vertex.Labels) > 0 {
		w.starts = w.startsBuf[:0]
		for _, lr := range store.VertexRanges {
			if slices.Contains(leaf.Vertex.Labels, lr.Label) {
				w.starts = append(w.starts, lr)
			}
		}
	}
	if qe.MaxHops < math.MaxUint8 {
		w.least = make([]uint8, len(store.Vertices))
	}
	return w
}

// reach is what a transfer walks with: the run's instance of the query edge,
// the store's edge array and the adjacency lists a hop may take, the store's
// vertices by id and the label ranges of the vertices that can start an input
// row (nil: any vertex), and what the partition has walked from.
type reach struct {
	qe     *cypher.QueryEdge
	edges  []epgm.Edge
	lists  []*epgm.Adjacency
	at     *epgm.Positions
	starts []epgm.LabelRange
	// least holds, per position in the store's vertex array, 1 + the fewest
	// hops of at least MinHops the vertex was walked from at, 0 for none: a
	// byte a vertex of the graph, one object a transfer, rewritten for every
	// partition. far holds that count for a vertex the store does not hold,
	// and for every vertex where MaxHops does not fit a byte; below, every
	// vertex and count of hops under MinHops walked from. A walk from a vertex
	// at as many hops as before, or more, reaches nothing new, so every vertex
	// and count of hops is walked from once a partition, at most.
	least []uint8
	far   map[epgm.ID]int
	below map[hopAt]bool
	stack []hopAt
	// memoOnly walks for the memo alone and makes no key.
	memoOnly bool
	// startsBuf and stackBuf back starts and stack up to a few labels and a
	// walk of DefaultMaxHops hops with a few branches open: no object of their
	// own.
	startsBuf [2]epgm.LabelRange
	stackBuf  [4 * cypher.DefaultMaxHops]hopAt
}

// hopAt is a vertex a walk reached after hops hops.
type hopAt struct {
	v    epgm.ID
	hops int
}

// from walks from v and appends to keys the key of every vertex that can start
// an input row and that it reaches in MinHops to MaxHops hops, the first time
// the partition does.
func (w *reach) from(v epgm.ID, keys []uint64) []uint64 {
	qe := w.qe
	w.stack = append(w.stack[:0], hopAt{v: v})
	for len(w.stack) > 0 {
		at := w.stack[len(w.stack)-1]
		w.stack = w.stack[:len(w.stack)-1]
		first, on := w.visit(at)
		if first && !w.memoOnly {
			keys = append(keys, mixKey(keySeed, at.v))
		}
		if !on || at.hops >= qe.MaxHops {
			continue
		}
		for _, l := range w.lists {
			for _, p := range l.Of(at.v) {
				de := &w.edges[p]
				if len(qe.Predicates) > 0 && !cypher.EvalElement(qe.Predicates, qe.Var, de.Properties) {
					continue
				}
				far := de.Target
				if l.In {
					far = de.Source
				}
				w.stack = append(w.stack, hopAt{v: far, hops: at.hops + 1})
			}
		}
	}
	return keys
}

// visit records that the walk reached at. It reports whether that is the
// first time the partition reaches a vertex that can start an input row in
// MinHops hops or more - its key goes into the set - and whether the walk goes
// on from there.
func (w *reach) visit(at hopAt) (first, on bool) {
	if at.hops < w.qe.MinHops {
		if w.below[at] {
			return false, false
		}
		if w.below == nil {
			w.below = map[hopAt]bool{}
		}
		w.below[at] = true
		return false, true
	}
	placed := w.at.Of(at.v)
	pos := memoAt(placed)
	dense := pos >= 0 && w.least != nil
	least, seen := w.far[at.v]
	if dense {
		least, seen = int(w.least[pos])-1, w.least[pos] > 0
	}
	if seen && least <= at.hops {
		return false, false
	}
	first = !seen && (w.starts == nil || startable(w.starts, placed))
	if dense {
		w.least[pos] = uint8(at.hops + 1)
		return first, true
	}
	if w.far == nil {
		w.far = map[epgm.ID]int{}
	}
	w.far[at.v] = at.hops
	return first, true
}

// within reports whether the walk reached v at hops or fewer: whether a walk
// of the expansion's edges from v reaches a key of the end set in that many
// hops, if v is not the key itself.
func (w *reach) within(v epgm.ID, hops int) bool {
	if pos := memoAt(w.at.Of(v)); pos >= 0 && w.least != nil {
		return w.least[pos] > 0 && int(w.least[pos])-1 <= hops
	}
	least, seen := w.far[v]
	return seen && least <= hops
}

// memoAt is the position the walk's memo keeps a vertex at, of placed, the
// positions of its id in the store's vertex array: the first, -1 for none.
func memoAt(placed []int32) int {
	if len(placed) == 0 {
		return -1
	}
	return int(placed[0])
}

// startable reports whether a vertex at one of the positions placed of the
// store's vertex array lies in one of ranges.
func startable(ranges []epgm.LabelRange, placed []int32) bool {
	for _, pos := range placed {
		for _, r := range ranges {
			if r.Lo <= int(pos) && int(pos) < r.Hi {
				return true
			}
		}
	}
	return false
}
