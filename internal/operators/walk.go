package operators

import (
	"fmt"
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
	in *dataflow.Dataset[embedding.Embedding], seeds, ends []*keyFilter) *dataflow.Dataset[embedding.Embedding] {
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
		// The stack and the via list are the lane's: allocated once a job, deep
		// enough for a path of up to DefaultMaxHops hops, instead of grown from
		// empty by the first rows; a deeper walk grows them.
		if depth := min(qe.MaxHops, cypher.DefaultMaxHops) + 1; cap(w.sc.frames) < depth {
			w.sc.frames, w.sc.via = make([]walkFrame, 0, depth), make([]epgm.ID, 0, 2*depth)
		}
		return func(e embedding.Embedding, emit func(embedding.Embedding), poll func() bool) {
			if !keeps(seeds, e, e) {
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
	ends  []*keyFilter
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
		if hops+1 < qe.MaxHops {
			frames = append(frames, walkFrame{at: far})
		}
	}
	sc.frames, sc.via = frames, via
	return visited
}
