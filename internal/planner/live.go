package planner

import (
	"math/bits"
	"slices"
	"strings"

	"gradoop/internal/cypher"
	"gradoop/internal/embedding"
	"gradoop/internal/operators"
)

// A column dies at its last use. The planner builds every operator that
// writes rows - a join, an outer join, a cartesian product, an expansion -
// knowing what of the query it has not planned yet, and hands the operator
// what that rest still reads of its rows (operators' rowShape): Gradoop's
// greedy planner keeps, per plan-table entry, the keys the rest of the query
// still needs, and so does this one. An id column stays while any of these
// reads it:
//
//   - the result: RETURN's bare variables, the named variables of RETURN *,
//     ORDER BY, an aggregate's argument - or, for the graph collection, every
//     variable;
//   - a predicate not applied yet;
//   - a join with a piece not joined yet: another partial, a variable-length
//     edge not expanded yet, an OPTIONAL MATCH or exists() group;
//   - the morphism check, under isomorphism of the column's kind, if an
//     element the rows do not bind yet may be the same one. An element has one
//     label, so two with disjoint label sets never are; an unlabeled element
//     may be any of its kind, and a path any vertex and any edge.
//
// A property column stays while the result or a predicate not applied yet
// reads it. Leaves write what their element's projection says, as before: a
// Cached leaf has several consumers.
//
// Over a store that finds a vertex by its id, a vertex property only the
// result reads is in no row at all: its leaf leaves it out, and the result
// reads it from the store by the vertex's id column, which stays to the
// root in its place.

// varSet is a set of the variables of one query: member i is liveness.vars[i].
// The first 64 are one word, so a query of up to 64 variables plans with no
// set on the heap; the members from the 64th on are in hi - member i is bit
// i%64 of hi[i/64-1] - which a set, once built, never writes.
type varSet struct {
	lo uint64
	hi []uint64
}

// only returns the set of member i alone.
func only(i int) varSet {
	if i < 64 {
		return varSet{lo: 1 << i}
	}
	hi := make([]uint64, i/64)
	hi[i/64-1] = 1 << (i % 64)
	return varSet{hi: hi}
}

// word returns the members 64k to 64k+63 of s.
func (s varSet) word(k int) uint64 {
	switch {
	case k == 0:
		return s.lo
	case k <= len(s.hi):
		return s.hi[k-1]
	}
	return 0
}

func (s varSet) union(o varSet) varSet {
	out := varSet{lo: s.lo | o.lo}
	if n := max(len(s.hi), len(o.hi)); n > 0 {
		out.hi = make([]uint64, n)
		for k := range out.hi {
			out.hi[k] = s.word(k+1) | o.word(k+1)
		}
	}
	return out
}

// meets reports whether s and o share a member; within whether every member
// of s is one of o.
func (s varSet) meets(o varSet) bool {
	for k := range 1 + min(len(s.hi), len(o.hi)) {
		if s.word(k)&o.word(k) != 0 {
			return true
		}
	}
	return false
}

func (s varSet) within(o varSet) bool {
	for k := range 1 + len(s.hi) {
		if s.word(k)&^o.word(k) != 0 {
			return false
		}
	}
	return true
}

func (s varSet) has(i int) bool { return s.word(i/64)>>(i%64)&1 != 0 }

// each calls f with every member of s, in ascending order.
func (s varSet) each(f func(i int)) {
	for k := range 1 + len(s.hi) {
		for w := s.word(k); w != 0; w &= w - 1 {
			f(64*k + bits.TrailingZeros64(w))
		}
	}
}

// propSet is a set of the properties a query projects: bit i is
// liveness.props[i]. A property from the 64th on is in no set and always
// read.
type propSet uint64

// liveness is what a query reads, indexed once when its planning starts: its
// variables, sorted by name - member order is name order, so a set's members
// come out sorted - its projected properties, and what the result and each
// predicate the planner applies read.
type liveness struct {
	vars  []queryVar
	props []embedding.PropRef
	preds []reads // of qg.Global and the OPTIONAL MATCH groups' predicates
	ret   reads   // the result's
	// fromStore are the vertex properties the result reads from the store:
	// the Returned keys of every vertex a match reports, over a store that
	// finds a vertex by its id.
	fromStore []embedding.PropRef
}

type queryVar struct {
	name string
	// conflicts are the other variables whose element the morphism check
	// holds this one's against: under isomorphism of their kind, those that
	// may bind the same element.
	conflicts varSet
}

// reads is what one reader reads of a row: id columns and property columns.
type reads struct {
	expr  cypher.Expr // the predicate, for the predicates' reads
	ids   varSet
	props propSet
}

func (r reads) union(o reads) reads { return reads{ids: r.ids.union(o.ids), props: r.props | o.props} }

// element is one query vertex or edge as the rule sees it: its variable, its
// kind and labels, the query vertex (nil for an edge) or the keys the edge's
// leaf projects, and whether a match reports it (an exists() group's elements
// are its own).
type element struct {
	name       string
	anonymous  bool
	kind       embedding.EntryKind
	labels     []string
	vertex     *cypher.QueryVertex
	projection []string
	bound      bool
}

// elements returns every vertex and edge of qg: its pattern's, its OPTIONAL
// MATCH groups' and its exists() groups'.
func elements(qg *cypher.QueryGraph) []element {
	var elems []element
	add := func(g *cypher.OptionalGroup, bound bool) {
		for _, qv := range g.Vertices {
			elems = append(elems, element{name: qv.Var, anonymous: qv.Anonymous, kind: embedding.VertexEntry,
				labels: qv.Labels, vertex: qv, bound: bound})
		}
		for _, qe := range g.Edges {
			kind := embedding.EdgeEntry
			if qe.IsVarLength() {
				kind = embedding.PathEntry
			}
			elems = append(elems, element{name: qe.Var, anonymous: qe.Anonymous, kind: kind,
				labels: qe.Types, projection: qe.Projection, bound: bound})
		}
	}
	add(&cypher.OptionalGroup{Vertices: qg.Vertices, Edges: qg.Edges}, true)
	for _, g := range qg.Optional {
		add(g, true)
	}
	for _, g := range qg.Existence {
		add(&g.OptionalGroup, false)
	}
	return elems
}

// newLiveness indexes qg for planning under morph. graphs plans for the graph
// collection, which reads every binding of a match, instead of the RETURN
// clause; byID plans for a store that finds a vertex by its id, from which
// the result reads what only it reads of a vertex's properties.
func newLiveness(qg *cypher.QueryGraph, morph operators.Morphism, graphs, byID bool) *liveness {
	elems := elements(qg)
	slices.SortFunc(elems, func(a, b element) int { return strings.Compare(a.name, b.name) })

	ret := qg.Return
	lv := &liveness{vars: make([]queryVar, len(elems))}
	for i, a := range elems {
		lv.vars[i].name = a.name
		for j, b := range elems {
			if i != j && collide(a, b, morph) {
				lv.vars[i].conflicts = lv.vars[i].conflicts.union(only(j))
			}
		}
		// The graph collection reads every binding, RETURN * the named ones.
		if a.bound && (graphs || ret.Star && !a.anonymous) {
			lv.ret.ids = lv.ret.ids.union(only(i))
		}
		keys := a.projection
		if qv := a.vertex; qv != nil {
			if byID && a.bound {
				for _, k := range qv.Returned {
					lv.fromStore = append(lv.fromStore, embedding.PropRef{Var: a.name, Key: k})
				}
			}
			keys = lv.leafKeys(qv)
		}
		for _, k := range keys {
			lv.props = append(lv.props, embedding.PropRef{Var: a.name, Key: k})
		}
	}

	lv.preds = make([]reads, 0, len(qg.Global))
	addPred := func(e cypher.Expr) {
		r := lv.exprReads(e)
		for _, v := range cypher.ExprVars(e) {
			r.ids = r.ids.union(lv.bit(v))
		}
		r.expr = e
		lv.preds = append(lv.preds, r)
	}
	for _, e := range qg.Global {
		addPred(e)
	}
	for _, e := range groupPredicates(qg.Optional) {
		addPred(e)
	}

	if !ret.Star {
		for _, item := range ret.Items {
			lv.ret = lv.ret.union(lv.resultReads(item.Expr))
		}
	}
	for _, s := range ret.OrderBy {
		lv.ret = lv.ret.union(lv.resultReads(s.Expr))
	}
	return lv
}

// collide reports whether the morphism check holds a and b against each
// other and they may bind one element: both vertices or both edges under
// isomorphism of their kind with label sets that intersect, or a path - its
// interior vertices and its edges - with anything of a kind under
// isomorphism.
func collide(a, b element, m operators.Morphism) bool {
	vIso, eIso := m.Vertex == operators.Isomorphism, m.Edge == operators.Isomorphism
	switch {
	case a.kind == embedding.PathEntry && b.kind == embedding.PathEntry:
		return vIso || eIso
	case a.kind == embedding.PathEntry || b.kind == embedding.PathEntry:
		other := a.kind
		if other == embedding.PathEntry {
			other = b.kind
		}
		return other == embedding.VertexEntry && vIso || other == embedding.EdgeEntry && eIso
	case a.kind != b.kind:
		return false
	case a.kind == embedding.VertexEntry && !vIso, a.kind == embedding.EdgeEntry && !eIso:
		return false
	}
	return len(a.labels) == 0 || len(b.labels) == 0 || slices.ContainsFunc(a.labels, func(l string) bool { return slices.Contains(b.labels, l) })
}

// index returns the member of variable v, if the query has it.
func (lv *liveness) index(v string) (int, bool) {
	for i := range lv.vars {
		if lv.vars[i].name == v {
			return i, true
		}
	}
	return 0, false
}

// bit returns the set of variable v alone; empty if the query has no such
// variable.
func (lv *liveness) bit(v string) varSet {
	if i, ok := lv.index(v); ok {
		return only(i)
	}
	return varSet{}
}

// propBit returns the set of property v.k alone; empty if the query does not
// project it or projects more than a propSet holds.
func (lv *liveness) propBit(v, k string) propSet {
	for i, p := range lv.props[:min(len(lv.props), 64)] {
		if p.Var == v && p.Key == k {
			return 1 << i
		}
	}
	return 0
}

// exprReads returns the properties e reads.
func (lv *liveness) exprReads(e cypher.Expr) reads {
	var r reads
	cypher.CollectPropAccesses(e, func(v, k string) { r.props |= lv.propBit(v, k) })
	return r
}

// resultReads returns what a RETURN or ORDER BY expression reads of a row: the
// id column of a bare variable, its own or an aggregate's argument, and every
// property it accesses - or, for one read from the store, its vertex's id
// column. Nothing else of an expression reads an id.
func (lv *liveness) resultReads(e cypher.Expr) reads {
	r := lv.exprReads(e)
	cypher.CollectPropAccesses(e, func(v, k string) {
		if slices.Contains(lv.fromStore, embedding.PropRef{Var: v, Key: k}) {
			r.ids = r.ids.union(lv.bit(v))
		}
	})
	if fc, ok := e.(*cypher.FuncCall); ok && fc.Aggregate() && fc.Arg != nil {
		e = fc.Arg
	}
	if ref, ok := e.(*cypher.VarRef); ok {
		r.ids = r.ids.union(lv.bit(ref.Var))
	}
	return r
}

// leafKeys returns the keys the rows of qv's leaf carry: those a predicate
// after it reads, and, unless the result reads them from the store, those the
// result reads.
func (lv *liveness) leafKeys(qv *cypher.QueryVertex) []string {
	if slices.ContainsFunc(lv.fromStore, func(p embedding.PropRef) bool { return p.Var == qv.Var }) {
		return qv.Projection
	}
	return qv.Keys()
}

// groupVars returns every variable the groups' vertices and edges name,
// those they share with the rest of the query included.
func (lv *liveness) groupVars(groups ...*cypher.OptionalGroup) varSet {
	var s varSet
	for _, g := range groups {
		for _, qv := range g.Vertices {
			s = s.union(lv.bit(qv.Var))
		}
		for _, qe := range g.Edges {
			s = s.union(lv.edgeVars(qe))
		}
	}
	return s
}

// edgeVars returns the set of qe's variable and its two endpoints'.
func (lv *liveness) edgeVars(qe *cypher.QueryEdge) varSet {
	return lv.bit(qe.Source).union(lv.bit(qe.Var)).union(lv.bit(qe.Target))
}

// predReads returns what the predicates read.
func (lv *liveness) predReads(preds ...cypher.Expr) reads {
	var r reads
	for _, e := range preds {
		for _, p := range lv.preds {
			if p.expr == e {
				r = r.union(p)
				break
			}
		}
	}
	return r
}

// rowsOf is what the rest of the query reads of the rows of an operator that
// binds out: the result's reads, rest's - the variables of every piece the
// rows will still be joined with and the predicates not applied to them yet -
// and the columns the morphism check still holds against an element out does
// not bind.
func (lv *liveness) rowsOf(out varSet, rest reads) readSet {
	r := lv.ret.union(rest)
	out.each(func(i int) {
		if !lv.vars[i].conflicts.within(out) {
			r.ids = r.ids.union(only(i))
		}
	})
	return readSet{lv: lv, reads: r}
}

// readSet is what the rest of the query reads of an operator's rows.
type readSet struct {
	lv *liveness
	reads
}

// live is embedding.Live: a variable or property the query does not know -
// none should reach here - is read.
func (r readSet) live(v, k string) bool {
	if k == "" {
		i, ok := r.lv.index(v)
		return !ok || r.ids.has(i)
	}
	b := r.lv.propBit(v, k)
	return b == 0 || r.props&b != 0
}
