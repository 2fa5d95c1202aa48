package operators

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"gradoop/internal/dataflow"
	"gradoop/internal/embedding"
	"gradoop/internal/epgm"
)

// KeySet is one key set of a plan: the keys of Source's rows at the variables
// Vars, which Target - a join or an expansion below the join that makes the
// set - tests its pairs, its input rows or its paths' far ends against before
// it writes a row (semi-join reduction, DESIGN decisions 40 and 42). Source is
// an input of that join or, for a join that runs its right input first, the
// selective leaf under its left input. It is a value of the plan, which no run
// writes; a run makes the set itself, with one dataflow.Keys collective.
type KeySet struct {
	Source, Target Operator
	Vars           []string

	// cols are where Source's rows hold Vars and targetCols where Target holds
	// them, in the same order: in a pair of a join or in an expansion's input
	// row. None is an expansion's end set, tested against a path's far end.
	cols       []int
	targetCols []pairCol
	// note is what a trace notes at the join the set is made for, up to the
	// set's size: its source and variables, rendered once for every run (a
	// cluster worker traces every run).
	note string
	// keys is what dataflow.Keys reads a source row's key with (keysAt),
	// made once for every run.
	keys func() func(embedding.Embedding, []uint64) []uint64
	// scan is, for a seed set, where an expansion's input row holds Vars:
	// the columns a scan of its input leaf tests the set at.
	scan []int
	// cross is, for an end set, the set a run over a pinned store transfers
	// back across the expansion's walk (Run.transfer); nil for any other set.
	cross *crossing
}

// crossing is an end set transferred back across its expansion's walk: the
// vertices from which a path the expansion may write can reach one of the
// set's keys, a seed set of the expansion's start vertex (DESIGN decision 44).
type crossing struct {
	vars []string  // the start vertex
	cols []pairCol // where an input row holds it
	scan []int     // the same, for a scan of the input leaf
	note string    // what a trace notes at the join, up to the set's size
}

// End reports whether the set is an expansion's end set: its key is a path's
// far end, not an input row's.
func (s KeySet) End() bool { return len(s.targetCols) == 0 }

// Transfer returns the variable an end set is transferred to across its
// expansion's walk in a run over a pinned store - the expansion's start
// vertex - and false for any other set.
func (s KeySet) Transfer() (string, bool) {
	if s.cross == nil {
		return "", false
	}
	return s.cross.vars[0], true
}

// pairCol is where a pair of rows of a join holds one identifier: a column of
// its left or of its right row. An expansion's input row is a left row.
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
// the plan, which no run writes.
func (op *JoinEmbeddings) PlaceKeySets() {
	op.sets = op.keySets()
	for i := range op.sets {
		s := &op.sets[i]
		s.note = "sip " + op.from(s) + "(" + strings.Join(s.Vars, ",") + ") n="
		s.keys = keysAt(s.cols)
		x, ok := s.Target.(*ExpandEmbeddings)
		switch {
		case ok && s.End():
			start := x.In.Meta().Var(x.startCol)
			s.cross = &crossing{vars: []string{start}, cols: []pairCol{{col: x.startCol}}, scan: []int{x.startCol},
				note: "sip transfer(" + start + ") n="}
		case ok:
			for _, c := range s.targetCols {
				s.scan = append(s.scan, c.col)
			}
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

// keyFilter is a key set at its target in a run: the keys, where the target
// holds them - in a pair of a join, in an input row of an expansion or, with
// no columns, as a path's far end - and, in a traced run, a count of what it
// dropped. scan is an expansion's seed set's columns as ints, for the scan of
// its input leaf.
type keyFilter struct {
	set     *dataflow.KeySet
	vars    []string
	cols    []pairCol
	scan    []int
	traced  bool
	dropped atomic.Int64
}

// drop counts a key not in the set where it is traced.
func (f *keyFilter) drop() {
	if f.traced {
		f.dropped.Add(1)
	}
}

// key is the key of the pair l, r at f's columns; an expansion's input row is
// l.
func (f *keyFilter) key(l, r embedding.Embedding) uint64 {
	h := keySeed
	for _, c := range f.cols {
		row := l
		if c.right {
			row = r
		}
		h = mixKey(h, row.ID(c.col))
	}
	return h
}

// keeps reports whether the key of the pair l, r is in every set of filters,
// and counts a pair that is not where it is traced.
func keeps(filters []*keyFilter, l, r embedding.Embedding) bool {
	if f := miss(filters, l, r); f != nil {
		f.drop()
		return false
	}
	return true
}

// miss returns the first of filters the key of the pair l, r is not in, or
// nil.
func miss(filters []*keyFilter, l, r embedding.Embedding) *keyFilter {
	for _, f := range filters {
		if !f.set.Has(f.key(l, r)) {
			return f
		}
	}
	return nil
}

// keyTest is the key sets a leaf's scan tests in a run (JoinEmbeddings.split):
// each set with the columns of the leaf's row that hold its variables, in the
// set's order. A traced run counts the elements the test dropped; read is the
// elements the scan read.
type keyTest struct {
	sets    []*dataflow.KeySet
	cols    [][]int
	read    int64
	traced  bool
	dropped atomic.Int64
	// setsBuf and colsBuf back sets and cols up to two sets: a test of no
	// more is one object.
	setsBuf [2]*dataflow.KeySet
	colsBuf [2][]int
}

// add has the test test set at the leaf row's columns cols.
func (t *keyTest) add(set *dataflow.KeySet, cols []int) {
	if t.sets == nil {
		t.sets, t.cols = t.setsBuf[:0], t.colsBuf[:0]
	}
	t.sets = append(t.sets, set)
	t.cols = append(t.cols, cols)
}

// has reports whether the key of an element whose row would hold ids is in
// every set.
func (t *keyTest) has(ids [3]epgm.ID) bool {
	for i, set := range t.sets {
		if !set.Has(idsKey(ids, t.cols[i])) {
			return false
		}
	}
	return true
}

// keeps is has, counting an element it drops where the run is traced.
func (t *keyTest) keeps(ids [3]epgm.ID) bool {
	if t.has(ids) {
		return true
	}
	if t.traced {
		t.dropped.Add(1)
	}
	return false
}

// testCols returns where a join's input holds vars, if a key set of them can
// be tested in its scan: the input is a vertex leaf or a directed non-loop edge
// leaf - one row an element, whose key is the row's - bare or behind an Alias
// and a Cached, shared or not, and binds every variable.
func testCols(in Operator, vars []string) ([]int, bool) {
	if keyedLeaf(Unwrap(in)) == nil || !bindsAll(in, vars) {
		return nil, false
	}
	cols := make([]int, len(vars))
	for i, v := range vars {
		cols[i], _ = in.Meta().Column(v)
	}
	return cols, true
}

// split divides the key sets installed at the join in r between its inputs'
// scans and its pairs. A join that hands on sets of its own tests the ones it
// is given at its pairs, and so does one that would probe a leaf in place -
// in the probe. Otherwise each set goes to the scan of every input that can
// test it (testCols) and whose rows the run does not hold already - a Cached
// evaluated before, the leaf a join runs first - and the pairs test only the
// sets no input took.
func (op *JoinEmbeddings) split(r *Run) (tests [2]*keyTest, pairs []*keyFilter) {
	filters := r.filters[op]
	if len(filters) == 0 || len(op.sets) > 0 {
		return tests, filters
	}
	if leaf, _ := op.inPlaceCandidate(r, tests); leaf != nil {
		return tests, filters
	}
	pairs = filters // copied once a set is taken
	copied := false
	for j, f := range filters {
		taken := false
		for i, in := range [2]Operator{op.Left, op.Right} {
			cols, ok := testCols(in, f.vars)
			if !ok || r.holds(in) {
				continue
			}
			if tests[i] == nil {
				tests[i] = new(keyTest)
			}
			tests[i].add(f.set, cols)
			taken = true
		}
		switch {
		case taken && !copied:
			pairs, copied = append([]*keyFilter(nil), filters[:j]...), true
		case !taken && copied:
			pairs = append(pairs, f)
		}
	}
	return tests, pairs
}

// ScanTests returns the inputs of a set's target whose scans test the set in
// a run over a pinned store. At an expansion (ExpandEmbeddings.split) that is
// its input, if it is a keyed leaf, for a seed set or an end set's transfer.
// At a join
// (JoinEmbeddings.split) it is none if the join hands on sets of its own or
// would probe a leaf in place, else every input that can test the set but the
// leaf the join runs first, whose rows the run holds.
func (op *JoinEmbeddings) ScanTests(s KeySet) []Operator {
	if x, ok := s.Target.(*ExpandEmbeddings); ok {
		if s.End() && s.cross == nil || keyedLeaf(Unwrap(x.In)) == nil {
			return nil
		}
		return []Operator{x.In}
	}
	t, ok := s.Target.(*JoinEmbeddings)
	if !ok || len(t.sets) > 0 {
		return nil
	}
	if leaf, _ := t.candidate(func(inPlaceLeaf) bool { return true }, [2]bool{}); leaf != nil {
		return nil
	}
	var ins []Operator
	for _, in := range [2]Operator{t.Left, t.Right} {
		if _, ok := testCols(in, s.Vars); ok && !(op.RightFirst() && in == op.sets[0].Source) {
			ins = append(ins, in)
		}
	}
	return ins
}

// holds reports whether r keeps a join input's rows already: the input is a
// Cached, bare or behind an Alias, that has been evaluated.
func (r *Run) holds(in Operator) bool {
	if a, ok := in.(*Alias); ok {
		in = a.In
	}
	c, ok := in.(*Cached)
	return ok && r.kept[c].rows != nil
}

// input evaluates a join's input in r: itself or, with a key test, the scan
// of its leaf that tests it. A scan that tests a key set is its consumer's: it
// is traced under the input - the Alias or the Cached the join reads, or the
// bare leaf - named as the leaf, with what it read and dropped, and the Cached
// of a shared leaf is evaluated only by a consumer that reads it whole.
func (r *Run) input(in Operator, test *keyTest) *dataflow.Dataset[embedding.Embedding] {
	if test == nil {
		return in.Evaluate(r)
	}
	leaf := keyedLeaf(Unwrap(in))
	c := r.env.Tracer()
	if c != nil {
		test.traced = true
	}
	out := tracedAs(in, leaf, r, func() *dataflow.Dataset[embedding.Embedding] { return leaf.scan(r, test) })
	if c != nil {
		c.Note(in, fmt.Sprintf("sip scanned=%d dropped=%d", test.read, test.dropped.Load()))
	}
	return out
}

// handOn evaluates next in r with every set of op whose source is source made
// of rows, source's output, and installed at its target for as long as next
// runs. Over a pinned store an end set's transfer is made and installed too.
func (r *Run) handOn(op *JoinEmbeddings, source Operator, rows *dataflow.Dataset[embedding.Embedding], next Operator) *dataflow.Dataset[embedding.Embedding] {
	if r.filters == nil {
		r.filters = map[Operator][]*keyFilter{}
	}
	for i := range op.sets {
		s := &op.sets[i]
		if s.Source != source {
			continue
		}
		set := dataflow.Keys(rows, s.keys)
		r.install(op, s.Target, &keyFilter{set: set, vars: s.Vars, cols: s.targetCols, scan: s.scan}, s.note)
		if r.transfers(s) {
			x := s.Target.(*ExpandEmbeddings)
			r.install(op, x, &keyFilter{set: r.transfer(x, rows, s.cols[0]), vars: s.cross.vars, cols: s.cross.cols, scan: s.cross.scan}, s.cross.note)
		}
	}
	out := next.Evaluate(r) // a scope of its own inside the join's
	for i := range op.sets {
		s := &op.sets[i]
		if s.Source != source {
			continue
		}
		n := 1
		if r.transfers(s) {
			n = 2
		}
		if fs := r.filters[s.Target]; len(fs) > n {
			r.filters[s.Target] = fs[:len(fs)-n]
		} else {
			delete(r.filters, s.Target)
		}
	}
	return out
}

// keysAt is what dataflow.Keys reads a row's key with for a set of the
// identifiers the row holds at cols: one key.
func keysAt(cols []int) func() func(embedding.Embedding, []uint64) []uint64 {
	each := func(e embedding.Embedding, keys []uint64) []uint64 { return append(keys, keyOf(e, cols)) }
	return func() func(embedding.Embedding, []uint64) []uint64 { return each }
}

// install puts f at target in r for the join op, which a trace notes with the
// set's size.
func (r *Run) install(op *JoinEmbeddings, target Operator, f *keyFilter, note string) {
	if c := r.env.Tracer(); c != nil {
		c.Note(op, note+strconv.Itoa(f.set.Len()))
		f.traced = true
	}
	r.filters[target] = append(r.filters[target], f)
}

// transfers reports whether r transfers s across its expansion's walk: s is an
// end set and r reads a pinned store.
func (r *Run) transfers(s *KeySet) bool { return s.cross != nil && r.access.Store() != nil }

// noteDropped tells a tracer how many pairs, input rows or paths the key sets
// of filters dropped at op, if it was given any.
func noteDropped(r *Run, op Operator, filters ...[]*keyFilter) {
	c := r.env.Tracer()
	if c == nil {
		return
	}
	var n, sets int64
	for _, fs := range filters {
		for _, f := range fs {
			n += f.dropped.Load()
			sets++
		}
	}
	if sets > 0 {
		c.Note(op, fmt.Sprintf("sip dropped=%d", n))
	}
}
