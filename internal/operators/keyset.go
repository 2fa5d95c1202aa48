package operators

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"gradoop/internal/dataflow"
	"gradoop/internal/embedding"
	"gradoop/internal/epgm"
)

// KeySet is one key set of a plan: the keys of Source's rows at the variables
// Vars, which Target - a join or an expansion below the join that makes the
// set - tests before it writes a row (semi-join reduction, DESIGN decision
// 40), or has the scan of an input leaf test. Source is an input of that join
// or, for a join that runs its right input first, the selective leaf under its
// left input. It is a value of the plan, which no run writes; a run makes the
// set itself, with one dataflow.Keys collective.
type KeySet struct {
	Source, Target Operator
	Vars           []string

	// cols are where Source's rows hold Vars - for a transfer, the end set's
	// far end - and targetCols where Target holds Vars, in the same order: in
	// a pair of a join or in an expansion's input row. None is an expansion's
	// end set, tested against a path's far end.
	cols       []int
	targetCols []pairCol
	// scans are, per input of Target - a join's left and right, an
	// expansion's one - where the input's rows hold Vars, if it is a keyed
	// leaf, bare or behind Alias/Cached, that binds them all: the columns its
	// scan tests the set at (leafCols). nil for any other input.
	scans [2][]pairCol
	// transfer marks an end set's transfer: the vertices from which the
	// expansion's walk reaches one of the end set's keys, a set of its start
	// vertex placed right after the end set, which a run makes over a pinned
	// store only (Run.transfer).
	transfer bool
	// note is what a trace notes at the join the set is made for, up to the
	// set's size: its source and variables, rendered once for every run (a
	// cluster worker traces every run).
	note string
	// keys is what dataflow.Keys reads a source row's key with (keysAt),
	// made once for every run; nil for a transfer.
	keys func() func(embedding.Embedding, []uint64) []uint64
}

// End reports whether the set is an expansion's end set: its key is a path's
// far end, not an input row's.
func (s KeySet) End() bool { return len(s.targetCols) == 0 }

// Transfer reports whether the set is an end set's transfer across its
// expansion's walk, and names the variable it is of: the expansion's start
// vertex.
func (s KeySet) Transfer() (string, bool) {
	if !s.transfer {
		return "", false
	}
	return s.Vars[0], true
}

// pairCol is where a pair of rows of a join holds one identifier: a column of
// its left or of its right row. An expansion's input row is a left row, and
// so is the row a leaf's scan would make of an element.
type pairCol struct {
	right bool
	col   int
}

// bindsAll reports whether op's rows bind every variable of vars.
func bindsAll(op Operator, vars []string) bool {
	m := op.Meta()
	for _, v := range vars {
		if !m.HasVar(v) {
			return false
		}
	}
	return true
}

// walkable reports whether the walk for a key set's target goes on into op: an
// inner join or an expansion, or a filter over one.
func walkable(op Operator) bool {
	for {
		switch n := op.(type) {
		case *FilterEmbeddings:
			op = n.In
			continue
		case *JoinEmbeddings, *ExpandEmbeddings:
			return true
		}
		return false
	}
}

// lowest is the one walk that places every key set: from op down to the
// lowest join or expansion that binds every variable of vars, whose rows all
// come of one of its pairs, or of one of its input rows and a path, carrying
// their identifiers of vars. At a filter it goes on into the filter's input;
// at a join or an expansion it goes on into the input that binds every
// variable - of a join the left one first - if that input is walkable, and
// stops above a leaf, a Cached, an Alias, an outer or a semi join. It returns
// nil if op is none of these.
func lowest(op Operator, vars []string) Operator {
	for {
		switch n := op.(type) {
		case *FilterEmbeddings:
			op = n.In
		case *JoinEmbeddings:
			in := n.Left
			if !bindsAll(in, vars) {
				in = n.Right
			}
			if !bindsAll(in, vars) || !walkable(in) {
				return n
			}
			op = in
		case *ExpandEmbeddings:
			if !bindsAll(n.In, vars) || !walkable(n.In) {
				return n
			}
			op = n.In
		default:
			return nil
		}
	}
}

// newKeySet is the set of source's keys of vars at target, a join or an
// expansion, where target holds them. An expansion whose input lacks a
// variable holds it only if it is the path's far end: the set is then of the
// variables the input binds (a seed set) or, if that is none, of the far end
// (an end set). ok is false if target holds them nowhere.
func newKeySet(source, target Operator, vars []string) (s KeySet, ok bool) {
	s = KeySet{Source: source, Target: target, Vars: vars, targetCols: make([]pairCol, 0, len(vars))}
	switch n := target.(type) {
	case *JoinEmbeddings:
		for _, v := range vars {
			c, onLeft := n.Left.Meta().Column(v)
			if !onLeft {
				c, _ = n.Right.Meta().Column(v)
			}
			s.targetCols = append(s.targetCols, pairCol{right: !onLeft, col: c})
		}
		s.scans = [2][]pairCol{leafCols(n.Left, vars), leafCols(n.Right, vars)}
	case *ExpandEmbeddings:
		in := n.In.Meta()
		var bound []string
		for _, v := range vars {
			c, ok := in.Column(v)
			switch {
			case ok:
				bound = append(bound, v)
				s.targetCols = append(s.targetCols, pairCol{col: c})
			case v != n.endVar:
				return KeySet{}, false
			}
		}
		if len(bound) > 0 {
			s.Vars = bound
			s.scans[0] = leafCols(n.In, bound)
		}
	default:
		return KeySet{}, false
	}
	s.cols = make([]int, len(s.Vars))
	for i, v := range s.Vars {
		s.cols[i], _ = source.Meta().Column(v)
	}
	return s, true
}

// leafCols returns where in's rows hold vars, if a key set of them can be
// tested in its scan: in is a vertex leaf or a directed non-loop edge leaf -
// one row an element, whose key is the row's - bare or behind an Alias and a
// Cached, shared or not, and binds every variable. It returns nil otherwise.
func leafCols(in Operator, vars []string) []pairCol {
	if keyedLeaf(Unwrap(in)) == nil || !bindsAll(in, vars) {
		return nil
	}
	cols := make([]pairCol, len(vars))
	for i, v := range vars {
		cols[i].col, _ = in.Meta().Column(v)
	}
	return cols
}

// place is the set of source's keys of vars at the lowest join or expansion
// below op that binds them, if there is one.
func place(source, op Operator, vars []string) (KeySet, bool) {
	return newKeySet(source, lowest(op, vars), vars)
}

// apart reports whether no input of target binds every variable of vars: the
// target is where they first come together.
func apart(target Operator, vars []string) bool {
	switch n := target.(type) {
	case *JoinEmbeddings:
		return !bindsAll(n.Left, vars) && !bindsAll(n.Right, vars)
	case *ExpandEmbeddings:
		return !bindsAll(n.In, vars)
	}
	return false
}

// PlaceKeySets has the join hand the keys of the input it runs first to the
// joins and expansions below the other one, wherever lowest finds a target
// for them. A join whose right input has a target where the join variables
// first come together - a join whose two inputs bind them only together, or
// an expansion whose input lacks just the path's far end - closes a cycle.
// Such a join runs its left input first and hands the target its keys (DESIGN
// decision 40), unless the target is an expansion's seed set whose variables
// a selective vertex leaf under the left input binds. Then it runs its right
// input first (DESIGN decision 42):
//
//  1. the leaf's keys go to the lowest join or expansion under the right
//     input that binds them;
//  2. the right rows' keys of the join variables go to the join in the left
//     input whose two inputs bind them only together,
//  3. and each join variable's keys to the lowest join in the left input that
//     binds it, if that is another;
//  4. then the left input runs, and the join joins the two.
//
// Every row of a target's output comes of one pair, or of one input row and
// path, and carries its identifiers of the set's variables up to this join,
// so one whose key is not in the set cannot make a row this join keeps. The
// planner calls it on the joins of a query's mandatory pattern while it builds
// the plan, which no run writes. An end set is followed by its transfer.
func (op *JoinEmbeddings) PlaceKeySets() {
	op.sets = op.keySets()
	for i := 0; i < len(op.sets); i++ {
		s := &op.sets[i]
		s.note = "sip " + op.from(s) + "(" + strings.Join(s.Vars, ",") + ") n="
		s.keys = keysAt(s.cols)
		if x, ok := s.Target.(*ExpandEmbeddings); ok && s.End() {
			start := x.In.Meta().Var(x.startCol)
			t := KeySet{Source: s.Source, Target: x, Vars: []string{start}, cols: s.cols,
				targetCols: []pairCol{{col: x.startCol}}, transfer: true, note: "sip transfer(" + start + ") n="}
			t.scans[0] = leafCols(x.In, t.Vars)
			i++
			op.sets = slices.Insert(op.sets, i, t)
		}
	}
}

// keySets is the sets PlaceKeySets places, in the order a run makes them.
func (op *JoinEmbeddings) keySets() []KeySet {
	t := lowest(op.Right, op.joinVars)
	if t == nil || !apart(t, op.joinVars) {
		return nil
	}
	closing, ok := newKeySet(op.Left, t, op.joinVars)
	if !ok {
		return nil
	}
	leaf := seedLeaf(op.Left, closing)
	if leaf == nil {
		return []KeySet{closing}
	}
	forward, ok := place(leaf, op.Right, closing.Vars)
	if !ok {
		return []KeySet{closing}
	}
	sets := []KeySet{forward}
	if t := lowest(op.Left, op.joinVars); t != nil && apart(t, op.joinVars) {
		if s, ok := newKeySet(op.Right, t, op.joinVars); ok {
			sets = append(sets, s)
		}
	}
	for i := range op.joinVars {
		v := op.joinVars[i : i+1]
		if t := lowest(op.Left, v); t != nil && !targets(sets, t) {
			if s, ok := newKeySet(op.Right, t, v); ok {
				sets = append(sets, s)
			}
		}
	}
	return sets
}

// targets reports whether a set of sets goes to t.
func targets(sets []KeySet, t Operator) bool {
	for _, s := range sets {
		if s.Target == t {
			return true
		}
	}
	return false
}

// seedLeaf returns the selective vertex leaf under left, inner joins and
// filters down, that binds every variable of s, if s is an expansion's seed
// set - so of one variable, the vertex. The leaf must be a Cached: the join
// runs it first, and the left input reads what it kept.
func seedLeaf(left Operator, s KeySet) *Cached {
	if _, ok := s.Target.(*ExpandEmbeddings); !ok || s.End() || len(s.Vars) != 1 {
		return nil
	}
	switch n := left.(type) {
	case *FilterEmbeddings:
		return seedLeaf(n.In, s)
	case *JoinEmbeddings:
		if leaf := seedLeaf(n.Left, s); leaf != nil {
			return leaf
		}
		return seedLeaf(n.Right, s)
	case *Cached:
		if v, ok := n.Inner.(*FilterAndProjectVertices); ok && v.Selective() && v.Vertex.Var == s.Vars[0] {
			return n
		}
	}
	return nil
}

// KeySets returns the key sets the join hands on, in the order a run makes
// them.
func (op *JoinEmbeddings) KeySets() []KeySet { return op.sets }

// RightFirst reports whether the join runs its right input first: whether its
// first set is a leaf's.
func (op *JoinEmbeddings) RightFirst() bool { return len(op.sets) > 0 && op.sets[0].Source != op.Left }

// from names a set's source in a trace: the join's left or right input, or
// the leaf it runs first.
func (op *JoinEmbeddings) from(s *KeySet) string {
	switch s.Source {
	case op.Left:
		return "left"
	case op.Right:
		return "right"
	}
	return "leaf"
}

// made is a key set a run has made and installed at its target (Run.handOn):
// the plan's set and the run's keys.
type made struct {
	*KeySet
	set *dataflow.KeySet
	// reach is, for an end set's transfer, what a walk from every key of the
	// end set reached, if the run made one (Run.transfer).
	reach *reach
}

// keyTest is key sets a run tests at one place, each at its own columns
// there: the pairs of a join, the input rows - a left row - or the paths' far
// ends of an expansion, or the scan of an input leaf. Where no row is made
// yet, the columns are those of the identifiers as a row would hold them: an
// element's in its leaf's row, a far end as the one column (farEnd). A traced
// run counts what it dropped; a scan counts what it read.
type keyTest struct {
	sets    []*dataflow.KeySet
	cols    [][]pairCol
	read    int64
	traced  bool
	dropped atomic.Int64
	// setsBuf and colsBuf back sets and cols up to two sets: a test of no
	// more is one object.
	setsBuf [2]*dataflow.KeySet
	colsBuf [2][]pairCol
	// reach is, at an expansion's paths' far ends, what the end set's
	// transfer reached, if the run made it: the walk goes no further than a
	// vertex from which no path reaches a key in time.
	reach *reach
}

// add has t test set at cols and returns it, a new test - of a traced run,
// if traced - if t is nil.
func (t *keyTest) add(set *dataflow.KeySet, cols []pairCol, traced bool) *keyTest {
	if t == nil {
		t = &keyTest{traced: traced}
	}
	if t.sets == nil {
		t.sets, t.cols = t.setsBuf[:0], t.colsBuf[:0]
	}
	t.sets = append(t.sets, set)
	t.cols = append(t.cols, cols)
	return t
}

// has reports whether the key of the pair l, r is in every set of t, and true
// if t is nil; an expansion's input row is l.
func (t *keyTest) has(l, r embedding.Embedding) bool {
	if t == nil {
		return true
	}
	for i, set := range t.sets {
		h := keySeed
		for _, c := range t.cols[i] {
			row := l
			if c.right {
				row = r
			}
			h = mixKey(h, row.ID(c.col))
		}
		if !set.Has(h) {
			return false
		}
	}
	return true
}

// hasIDs is has for identifiers ids that no row holds yet: an element's as
// its leaf's row would hold them (vertexIDs, edgeIDs), or a path's far end.
func (t *keyTest) hasIDs(ids [3]epgm.ID) bool {
	if t == nil {
		return true
	}
	for i, set := range t.sets {
		h := keySeed
		for _, c := range t.cols[i] {
			h = mixKey(h, ids[c.col])
		}
		if !set.Has(h) {
			return false
		}
	}
	return true
}

// keeps and keepsIDs are has and hasIDs, counting what they drop where the
// run is traced.
func (t *keyTest) keeps(l, r embedding.Embedding) bool { return t.has(l, r) || t.drop() }
func (t *keyTest) keepsIDs(ids [3]epgm.ID) bool        { return t.hasIDs(ids) || t.drop() }

func (t *keyTest) drop() bool {
	if t.traced {
		t.dropped.Add(1)
	}
	return false
}

// farEnd is where an end set's key is: a path's far end, tested as the one
// identifier of a row not made yet.
var farEnd = []pairCol{{}}

// route is the one rule for where a run tests the key sets installed at
// target, a join or an expansion. A set goes to the scan of every input of
// the target that can test it (KeySet.scans) and whose rows the run does not
// hold yet - a Cached evaluated before, such as the leaf a right-first join
// runs first, is read as it is - if the target lets its inputs' scans test
// sets at all. Otherwise the target tests it itself: at its pairs or its input
// rows (at) or, an expansion's end set, at its paths' far ends (ends). A join
// lets its scans test sets unless it hands on sets of its own, running one
// input first to filter the other, or reads a leaf where it lies beside a
// small input (atPairs) and tests them at the pairs that makes. An expansion
// does over a pinned store only: over a
// plain graph it is the paper's bulk iteration, and its start step tests the
// seed sets per input row.
func (r *Run) route(target Operator) (scans [2]*keyTest, at, ends *keyTest) {
	installed := r.filters[target]
	if len(installed) == 0 {
		return scans, nil, nil
	}
	var ins [2]Operator
	var scan bool
	switch t := target.(type) {
	case *JoinEmbeddings:
		ins, scan = [2]Operator{t.Left, t.Right}, len(t.sets) == 0 && !t.atPairs(r)
	case *ExpandEmbeddings:
		ins[0], scan = t.In, r.access.Store() != nil
	}
	traced := r.env.Tracer() != nil
	var reached *reach
	for _, k := range installed {
		if k.reach != nil {
			reached = k.reach
		}
		taken := false
		for i, in := range ins {
			if cols := k.scans[i]; scan && cols != nil && !r.holds(in) {
				scans[i], taken = scans[i].add(k.set, cols, traced), true
			}
		}
		switch {
		case taken:
		case k.End():
			ends = ends.add(k.set, farEnd, traced)
		default:
			at = at.add(k.set, k.targetCols, traced)
		}
	}
	if ends != nil {
		ends.reach = reached
	}
	return scans, at, ends
}

// holds reports whether r keeps an input's rows already: the input is a
// Cached, bare or behind an Alias, that has been evaluated.
func (r *Run) holds(in Operator) bool {
	if a, ok := in.(*Alias); ok {
		in = a.In
	}
	c, ok := in.(*Cached)
	return ok && r.kept[c].rows != nil
}

// input evaluates an input of a join or an expansion in r: itself or, with a
// key test, the scan of its leaf that tests it. A scan that tests a key set is
// its consumer's: it is traced under the input - the Alias or the Cached the
// consumer reads, or the bare leaf - named as the leaf, with what it read and
// dropped, and the Cached of a shared leaf is evaluated only by a consumer
// that reads it whole.
func (r *Run) input(in Operator, test *keyTest) *dataflow.Dataset[embedding.Embedding] {
	if test == nil {
		return in.Evaluate(r)
	}
	leaf := keyedLeaf(Unwrap(in))
	out := tracedAs(in, leaf, r, func() *dataflow.Dataset[embedding.Embedding] { return leaf.scan(r, test) })
	if c := r.env.Tracer(); c != nil {
		c.Note(in, fmt.Sprintf("sip scanned=%d dropped=%d", test.read, test.dropped.Load()))
	}
	return out
}

// handOn evaluates next in r with every set of op whose source is source made
// of rows, source's output, and installed at its target for as long as next
// runs: an end set's transfer walks for its keys (Run.transfer), every other
// set reads them off the rows.
func (r *Run) handOn(op *JoinEmbeddings, source Operator, rows *dataflow.Dataset[embedding.Embedding], next Operator) *dataflow.Dataset[embedding.Embedding] {
	if r.filters == nil {
		r.filters = map[Operator][]made{}
	}
	c := r.env.Tracer()
	for i := range op.sets {
		s := &op.sets[i]
		if !r.makes(s, source) {
			continue
		}
		var keys *dataflow.KeySet
		var reached *reach
		if s.transfer {
			// The end set was made right before its transfer.
			fs := r.filters[s.Target]
			keys, reached = r.transfer(s.Target.(*ExpandEmbeddings), rows, s.cols[0], fs[len(fs)-1].set)
		} else {
			keys = dataflow.Keys(rows, s.keys)
		}
		if c != nil {
			c.Note(op, s.note+strconv.Itoa(keys.Len()))
		}
		r.filters[s.Target] = append(r.filters[s.Target], made{s, keys, reached})
	}
	out := next.Evaluate(r) // a scope of its own inside the join's
	for i := range op.sets {
		if s := &op.sets[i]; r.makes(s, source) {
			if fs := r.filters[s.Target]; len(fs) > 1 {
				r.filters[s.Target] = fs[:len(fs)-1]
			} else {
				delete(r.filters, s.Target)
			}
		}
	}
	return out
}

// makes reports whether r makes s of source's rows: s is of source and, if it
// is an end set's transfer, r reads a pinned store.
func (r *Run) makes(s *KeySet, source Operator) bool {
	return s.Source == source && (!s.transfer || r.access.Store() != nil)
}

// keysAt is what dataflow.Keys reads a row's key with for a set of the
// identifiers the row holds at cols: one key.
func keysAt(cols []int) func() func(embedding.Embedding, []uint64) []uint64 {
	each := func(e embedding.Embedding, keys []uint64) []uint64 { return append(keys, keyOf(e, cols)) }
	return func() func(embedding.Embedding, []uint64) []uint64 { return each }
}

// noteDropped tells a tracer how many pairs, input rows or paths the key tests
// at op dropped, if it has any.
func noteDropped(r *Run, op Operator, tests ...*keyTest) {
	c := r.env.Tracer()
	if c == nil {
		return
	}
	var n int64
	var tested bool
	for _, t := range tests {
		if t != nil {
			n += t.dropped.Load()
			tested = true
		}
	}
	if tested {
		c.Note(op, fmt.Sprintf("sip dropped=%d", n))
	}
}
