// Package planner implements the greedy cost-based query planner of §3.2:
// it decomposes the query graph into vertex and edge sets and constructs a
// bushy plan of physical operators by repeatedly choosing the join (or
// variable-length expansion) with the smallest estimated intermediate result
// cardinality, using pre-computed graph statistics and textbook cardinality
// estimation.
package planner

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"gradoop/internal/cypher"
	"gradoop/internal/dataflow"
	"gradoop/internal/embedding"
	"gradoop/internal/epgm"
	"gradoop/internal/operators"
	"gradoop/internal/stats"
)

// GraphAccess is how a run of a plan reads the data graph: the plain
// representation (full scans) or the IndexedLogicalGraph (per-label datasets,
// §3.4).
type GraphAccess = operators.GraphAccess

// PlainAccess scans the full vertex and edge datasets regardless of labels.
type PlainAccess struct{ Graph *epgm.LogicalGraph }

// Env implements GraphAccess.
func (a PlainAccess) Env() *dataflow.Env { return a.Graph.Env() }

// Vertices implements GraphAccess.
func (a PlainAccess) Vertices([]string) epgm.Scan[epgm.Vertex] {
	return epgm.PlainScan(a.Graph.Vertices)
}

// Edges implements GraphAccess.
func (a PlainAccess) Edges([]string) epgm.Scan[epgm.Edge] { return epgm.PlainScan(a.Graph.Edges) }

// Store implements GraphAccess: a plain graph has none.
func (a PlainAccess) Store() *epgm.Store { return nil }

// IndexedAccess reads the label-partitioned store, loading only the ranges a
// label predicate selects - one dataset per label, which a leaf walks one by
// one - and hands a variable-length path the store's adjacency to walk. A
// session and a cluster worker plan and execute against it.
type IndexedAccess struct{ Index *epgm.IndexedLogicalGraph }

// Env implements GraphAccess.
func (a IndexedAccess) Env() *dataflow.Env { return a.Index.Env() }

// Vertices implements GraphAccess.
func (a IndexedAccess) Vertices(labels []string) epgm.Scan[epgm.Vertex] {
	return a.Index.Vertices(labels...)
}

// Edges implements GraphAccess.
func (a IndexedAccess) Edges(types []string) epgm.Scan[epgm.Edge] {
	return a.Index.Edges(types...)
}

// Store implements GraphAccess.
func (a IndexedAccess) Store() *epgm.Store { return a.Index.Store() }

// Planner holds the planning inputs that stay fixed across queries.
type Planner struct {
	Stats *stats.GraphStatistics
	Morph operators.Morphism
	// DisableReuse turns off recurring-subquery reuse: by default,
	// structurally identical leaf sub-patterns (same labels, predicates and
	// projections, differing only in variable names) share one cached leaf
	// operator behind per-variable aliases (§6's "recurring subqueries").
	DisableReuse bool
}

// QueryPlan is the output of planning: a physical operator tree plus the
// estimates recorded while building it, and what Execute runs it on - a graph
// access and a binding of the query graph (none: the planned one as it is).
// Rebind attaches another of each to the same tree and estimates, which no
// run writes.
type QueryPlan struct {
	Root      operators.Operator
	Estimates map[operators.Operator]float64
	// Labels names the operators in a traced run of the plan (nil: each
	// one's Description, rendered per evaluation).
	Labels operators.Labeler

	access  GraphAccess
	binding *cypher.Binding
}

// Execute evaluates the plan in a run of its own.
func (p *QueryPlan) Execute() *dataflow.Dataset[embedding.Embedding] {
	return p.Root.Evaluate(operators.NewRun(p.access, p.binding).WithLabels(p.Labels))
}

// Meta returns the root operator's embedding metadata.
func (p *QueryPlan) Meta() *embedding.Meta { return p.Root.Meta() }

// Explain renders the operator tree bottom-up with estimated cardinalities,
// in the spirit of the paper's Figure 2.
func (p *QueryPlan) Explain() string { return p.ExplainWith(nil) }

// ExplainWith renders the operator tree like Explain, appending annot(op)
// to every operator's line (empty annotations are skipped). EXPLAIN ANALYZE
// is built on it: core passes an annotator that joins each plan node with
// the actual cardinalities and per-stage times recorded by the execution
// tracer.
func (p *QueryPlan) ExplainWith(annot func(operators.Operator) string) string {
	var sb strings.Builder
	for _, n := range p.Nodes() {
		fmt.Fprintf(&sb, "%s%s", strings.Repeat("  ", n.Depth), n.Op.Description())
		if est, ok := p.Estimates[n.Op]; ok {
			fmt.Fprintf(&sb, "  ~%.0f rows", est)
		}
		if annot != nil {
			if a := annot(n.Op); a != "" {
				sb.WriteString("  " + a)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// PlanNode is one operator of the tree in Explain order (parent before
// children, children in declaration order) with its rendering depth.
type PlanNode struct {
	Op    operators.Operator
	Depth int
}

// Nodes flattens the operator tree in the order ExplainWith renders it, so
// per-node metadata built from this slice lines up index-for-index with
// Explain's annotator calls.
func (p *QueryPlan) Nodes() []PlanNode {
	var out []PlanNode
	var walk func(op operators.Operator, depth int)
	walk = func(op operators.Operator, depth int) {
		out = append(out, PlanNode{Op: op, Depth: depth})
		for _, c := range op.Children() {
			walk(c, depth+1)
		}
	}
	walk(p.Root, 0)
	return out
}

// partial is one in-progress sub-plan during greedy enumeration: its
// operator, its estimated cardinality, the variables its rows bind and where
// the query states the first of its leaves - 3e for the source of edge e, 3e+1
// for its target and 3e+2 for the edge, but for a vertex an earlier edge
// names, and then the vertices no edge names, in their order.
type partial struct {
	op    operators.Operator
	card  float64
	vars  varSet
	first int
}

// evaluable splits predicates into those the partial's rows can be filtered
// by - the partial covers every variable a predicate names and its rows carry
// every property the predicate reads (vertex properties live on vertex leaves,
// not on the edge leaves that first cover the variable) - and the rest, in
// their order, in preds' own array.
func (p *partial) evaluable(lv *liveness, preds []cypher.Expr) (usable, rest []cypher.Expr) {
	meta := p.op.Meta()
	rest = preds[:0]
	for _, e := range preds {
		ok := lv.predReads(e).ids.within(p.vars)
		cypher.CollectPropAccesses(e, func(variable, key string) {
			ok = ok && meta.HasProp(variable, key)
		})
		if ok {
			usable = append(usable, e)
		} else {
			rest = append(rest, e)
		}
	}
	return usable, rest
}

// planning is the planning of one query: the planner, the query's liveness
// index, the estimates recorded so far, the WHERE conjuncts no operator
// applies yet, the chooser that picks each step and the slice the steps'
// candidates are listed in.
type planning struct {
	*Planner
	qg      *cypher.QueryGraph
	lv      *liveness
	est     map[operators.Operator]float64
	pending []cypher.Expr
	pick    chooser
	cands   []candidate
}

// filter puts the pending predicates p's rows can be filtered by on p, in a
// FilterEmbeddings, and reports how many it put there.
func (pn *planning) filter(p *partial) int {
	var usable []cypher.Expr
	if usable, pn.pending = p.evaluable(pn.lv, pn.pending); len(usable) == 0 {
		return 0
	}
	p.op = operators.NewFilterEmbeddings(p.op, usable)
	return len(usable)
}

// Plan builds a physical plan for the query graph, which Execute runs over
// access. Its rows carry what the RETURN clause reads.
func (pl *Planner) Plan(access GraphAccess, qg *cypher.QueryGraph) (*QueryPlan, error) {
	return pl.plan(access, qg, false, greedy)
}

// PlanGraphs is Plan for the graph collection of Definition 2.4: its rows
// carry every binding of a match, anonymous variables included.
func (pl *Planner) PlanGraphs(access GraphAccess, qg *cypher.QueryGraph) (*QueryPlan, error) {
	return pl.plan(access, qg, true, greedy)
}

// PlanLeftDeep builds a plan without cost-based reordering: the query's
// leaves are joined left-deep in the order it states them (leftDeep). It
// exists as the ablation baseline for the greedy planner. Everything but the
// choice of each step - leaves, reuse, predicate placement, the columns a row
// carries, key sets and the groups - is Plan's, so the difference between the
// two is exactly the benefit of §3.2's statistics-driven join ordering.
func (pl *Planner) PlanLeftDeep(access GraphAccess, qg *cypher.QueryGraph) (*QueryPlan, error) {
	return pl.plan(access, qg, false, leftDeep)
}

func (pl *Planner) plan(access GraphAccess, qg *cypher.QueryGraph, graphs bool, pick chooser) (*QueryPlan, error) {
	if len(qg.Vertices) == 0 {
		return nil, fmt.Errorf("planner: query graph has no vertices")
	}
	if choose != nil {
		pick = seeded
	}
	lv, est := newLiveness(qg, pl.Morph, graphs), map[operators.Operator]float64{}
	pn := &planning{Planner: pl, qg: qg, lv: lv, est: est, pending: append([]cypher.Expr(nil), qg.Global...), pick: pick}

	plans, varLength := pn.leaves(qg.Vertices, qg.Edges, !pl.DisableReuse)

	// Global predicates not yet applied: each goes on the first partial that
	// can evaluate it (partial.evaluable).
	applyPredicates := func(p *partial) {
		if n := pn.filter(p); n > 0 {
			p.card = math.Max(p.card*math.Pow(0.25, float64(n)), 1)
			est[p.op] = p.card
		}
	}
	for _, p := range plans {
		applyPredicates(p)
	}

	// What the groups read of the mandatory pattern's rows: the variables
	// they join on and their predicates.
	groups := append(append([]*cypher.OptionalGroup(nil), qg.Optional...), existenceGroups(qg)...)
	outer := lv.predReads(groupPredicates(qg.Optional)...)
	outer.ids = outer.ids.union(lv.groupVars(groups...))
	root, err := pn.combine(plans, varLength, outer, applyPredicates)
	if err != nil {
		return nil, err
	}
	if len(pn.pending) > 0 {
		f := operators.NewFilterEmbeddings(root.op, pn.pending)
		est[f] = root.card
		root.op = f
		pn.pending = nil
	}
	placeKeySets(root.op)

	// exists()/NOT exists() predicates filter the mandatory solutions
	// through semi/anti joins.
	for _, eg := range qg.Existence {
		sub, err := pn.planGroup(&eg.OptionalGroup, groups)
		if err != nil {
			return nil, err
		}
		op := operators.NewSemiJoinEmbeddings(root.op, sub.op, pl.Morph, eg.Negated)
		card := math.Max(root.card*0.5, 1)
		est[op] = card
		root = &partial{op: op, card: card, vars: root.vars}
	}

	// OPTIONAL MATCH groups extend the mandatory solutions through left
	// outer joins, in clause order.
	for i, group := range qg.Optional {
		sub, err := pn.planGroup(group, groups)
		if err != nil {
			return nil, err
		}
		out := root.vars.union(sub.vars)
		op := operators.NewOptionalJoinEmbeddings(root.op, sub.op, pl.Morph, group.Predicates,
			pn.extended(out, qg.Optional[i+1:]).live)
		// Every left row survives; extensions multiply at most by the
		// group's fan-out estimate.
		card := math.Max(root.card, root.card*sub.card/math.Max(1, float64(pl.Stats.VertexCount)))
		est[op] = card
		root = &partial{op: op, card: card, vars: out}
	}
	return &QueryPlan{Root: root.op, Estimates: est, access: access}, nil
}

// placeKeySets has every inner join of op's tree, the mandatory pattern's,
// hand the keys of the input it runs first to the joins and expansions below
// the other (JoinEmbeddings.PlaceKeySets). The joins of an OPTIONAL MATCH or
// exists() group take none: they are planned apart.
func placeKeySets(op operators.Operator) {
	if j, ok := op.(*operators.JoinEmbeddings); ok {
		j.PlaceKeySets()
	}
	for _, c := range op.Children() {
		placeKeySets(c)
	}
}

// extended is what the rest of the query reads of the rows of an outer join
// that binds out: the result and the OPTIONAL MATCH groups after it.
func (pn *planning) extended(out varSet, later []*cypher.OptionalGroup) readSet {
	rest := pn.lv.predReads(groupPredicates(later)...)
	rest.ids = rest.ids.union(pn.lv.groupVars(later...))
	return pn.lv.rowsOf(out, rest)
}

// joined is what the rest of the query reads of the rows of an operator that
// binds out, built in a combine call whose partials outer is what the query
// outside them reads of: that, the pending predicates and the variables of
// what is left to join - the partials of plans but those at skip and the
// variable-length edges.
func (pn *planning) joined(out varSet, plans []*partial, skip [2]int, varLength []*cypher.QueryEdge, outer reads) readSet {
	rest := outer.union(pn.lv.predReads(pn.pending...))
	for k, p := range plans {
		if k != skip[0] && k != skip[1] {
			rest.ids = rest.ids.union(p.vars)
		}
	}
	for _, qe := range varLength {
		rest.ids = rest.ids.union(pn.lv.bit(qe.Source)).union(pn.lv.bit(qe.Target))
	}
	return pn.lv.rowsOf(out, rest)
}

// A candidate is one step combine may take next: a join or a cartesian
// product of plans[i], its left input, with plans[j], or an expansion of
// plans[i] by varLength[edge], which closes a cycle if the input binds both
// ends of the edge. card is the step's estimated result.
type candidate struct {
	kind            int
	i, j, edge      int
	reverse, closes bool
	card            float64
}

// What a candidate builds, in the order leftDeep prefers them.
const (
	expand = iota
	join
	cross
)

// A chooser picks combine's next step: the index of one of cands, every
// legal step over plans. Choosers differ only in this: every plan is
// built by the one loop, and a Cypher result does not depend on its plan.
type chooser func(plans []*partial, cands []candidate) int

// greedy is §3.2's rule: the join or expansion with the smallest estimate,
// the first of equal ones, whose smaller input builds - the earlier of two
// equal ones - and which runs forward if it closes a cycle. Only when nothing
// connects, the cheapest cartesian product.
func greedy(plans []*partial, cands []candidate) int {
	best, cheapest := -1, -1
	for k, c := range cands {
		switch l, r := plans[c.i], plans[c.j]; {
		case c.kind == join && (r.card < l.card || r.card == l.card && c.j < c.i):
		case c.kind == expand && c.reverse && c.closes:
		case c.kind == cross:
			if cheapest < 0 || c.card < cands[cheapest].card {
				cheapest = k
			}
		case best < 0 || c.card < cands[best].card:
			best = k
		}
	}
	if best < 0 {
		return cheapest
	}
	return best
}

// leftDeep is the ablation baseline's order: the partial holding the query's
// first leaf grows - as the left input of a join - by its first expansion in
// query order, else by a join with the partial whose first leaf the query
// states earliest of those it meets, else by a cartesian product with the
// earliest one.
func leftDeep(plans []*partial, cands []candidate) int {
	cur := 0
	for k, p := range plans {
		if p.first < plans[cur].first {
			cur = k
		}
	}
	pick, best := -1, [2]int{}
	for k, c := range cands {
		with := c.j // an expansion's is 0: of cur's expansions, the first wins
		switch {
		case c.i == cur:
		case c.kind == cross && c.j == cur:
			with = c.i
		default:
			continue
		}
		if key := [2]int{c.kind, plans[with].first}; pick < 0 || slices.Compare(key[:], best[:]) < 0 {
			pick, best = k, key
		}
	}
	return pick
}

// seeded takes the step choose picks.
func seeded(_ []*partial, cands []candidate) int { return choose(len(cands)) }

// choose is the test hook of the seeded chooser: when set, every plan takes
// the steps choose(n) picks of its n candidates instead of greedy's or
// leftDeep's. It is nil but in the conformance harness, which reaches it by
// go:linkname to run each case under seeded random plans: a result must not
// depend on its plan.
var choose func(n int) int

// candidates lists every step combine may take over plans and varLength, in
// the planning's one slice: for each two partials, a join in either input
// order if they meet, and else a cartesian product with the smaller one - the
// earlier of equal ones - as its left input, which it broadcasts; then for
// each variable-length edge, its expansion from every partial that binds an
// end, forward before reverse.
func (pn *planning) candidates(plans []*partial, varLength []*cypher.QueryEdge) []candidate {
	if n := len(plans)*(len(plans)-1) + 2*len(plans)*len(varLength); cap(pn.cands) < n {
		pn.cands = make([]candidate, 0, n) // the first step's are the most
	}
	cands := pn.cands[:0]
	for i, l := range plans {
		for j := i + 1; j < len(plans); j++ {
			r := plans[j]
			switch {
			case l.vars.meets(r.vars):
				card := pn.joinCard(pn.qg, pn.lv, l, r)
				cands = append(cands, candidate{kind: join, i: i, j: j, card: card}, candidate{kind: join, i: j, j: i, card: card})
			case r.card < l.card:
				cands = append(cands, candidate{kind: cross, i: j, j: i, card: l.card * r.card})
			default:
				cands = append(cands, candidate{kind: cross, i: i, j: j, card: l.card * r.card})
			}
		}
	}
	for e, qe := range varLength {
		for i, p := range plans {
			fw, bw := p.vars.meets(pn.lv.bit(qe.Source)), p.vars.meets(pn.lv.bit(qe.Target))
			if fw {
				cands = append(cands, candidate{kind: expand, i: i, edge: e, closes: bw, card: pn.expandCard(pn.qg, pn.lv, p, qe, false)})
			}
			if bw {
				cands = append(cands, candidate{kind: expand, i: i, edge: e, reverse: true, closes: fw, card: pn.expandCard(pn.qg, pn.lv, p, qe, true)})
			}
		}
	}
	pn.cands = cands
	return cands
}

// combine is the greedy loop of §3.2, the planner's only one: until a single
// plan covers every leaf and every variable-length edge is expanded, it takes
// the step the planning's chooser picks of the candidates, records its
// estimate and hands the new partial to applyPredicates. A query's mandatory
// pattern and every OPTIONAL MATCH or exists() group are ordered by it. outer
// is what the query outside these partials reads of them.
func (pn *planning) combine(plans []*partial, varLength []*cypher.QueryEdge, outer reads,
	applyPredicates func(*partial)) (*partial, error) {
	pl, lv, est := pn.Planner, pn.lv, pn.est
	for len(plans) > 1 || len(varLength) > 0 {
		cands := pn.candidates(plans, varLength)
		if len(cands) == 0 {
			return nil, fmt.Errorf("planner: cannot complete plan (unreachable variable-length edge)")
		}
		c := cands[pn.pick(plans, cands)]
		if c.kind == expand {
			p, qe := plans[c.i], varLength[c.edge]
			varLength = append(varLength[:c.edge], varLength[c.edge+1:]...)
			out := p.vars.union(lv.edgeVars(qe))
			op, err := operators.NewExpandEmbeddings(p.op, qe, pl.Morph, c.reverse,
				pn.joined(out, plans, [2]int{c.i, c.i}, varLength, outer).live)
			if err != nil {
				return nil, err
			}
			plans[c.i] = &partial{op: op, card: c.card, vars: out, first: p.first}
			est[op] = c.card
			applyPredicates(plans[c.i])
			continue
		}
		l, r := plans[c.i], plans[c.j]
		out := l.vars.union(r.vars)
		live := pn.joined(out, plans, [2]int{c.i, c.j}, varLength, outer).live
		merged := &partial{card: c.card, vars: out, first: min(l.first, r.first)}
		if c.kind == join {
			merged.op = operators.NewJoinEmbeddings(l.op, r.op, pl.Morph, live)
		} else {
			merged.op = operators.NewCartesianProduct(l.op, r.op, pl.Morph, live)
		}
		est[merged.op] = c.card
		applyPredicates(merged)
		if c.kind == join {
			plans = append(without(plans, c.i, c.j), merged)
		} else {
			// A cartesian product leads: greedy's next step is one too, and
			// takes it first of equal inputs.
			plans = append([]*partial{merged}, without(plans, c.i, c.j)...)
		}
	}
	return plans[0], nil
}

// without returns plans but those at i and j, in their order, in plans' own
// array.
func without(plans []*partial, i, j int) []*partial {
	next := plans[:0]
	for k, p := range plans {
		if k != i && k != j {
			next = append(next, p)
		}
	}
	return next
}

// groupPredicates returns the predicates of the groups.
func groupPredicates(groups []*cypher.OptionalGroup) []cypher.Expr {
	var out []cypher.Expr
	for _, g := range groups {
		out = append(out, g.Predicates...)
	}
	return out
}

func existenceGroups(qg *cypher.QueryGraph) []*cypher.OptionalGroup {
	out := make([]*cypher.OptionalGroup, len(qg.Existence))
	for i, eg := range qg.Existence {
		out[i] = &eg.OptionalGroup
	}
	return out
}

// planGroup builds the sub-plan producing one OPTIONAL MATCH or exists()
// group's embeddings: leaves for the group's new vertices and its edges,
// combined by the planning's chooser. Its rows carry what the join
// with the mandatory solutions and the other groups of groups read.
func (pn *planning) planGroup(group *cypher.OptionalGroup, groups []*cypher.OptionalGroup) (*partial, error) {
	lv := pn.lv
	plans, _ := pn.leaves(group.Vertices, group.Edges, false) // a group has no variable-length edge
	if len(plans) == 0 {
		return nil, fmt.Errorf("planner: empty OPTIONAL MATCH group")
	}
	outer := lv.predReads(groupPredicates(pn.qg.Optional)...)
	outer.ids = outer.ids.union(lv.groupVars(&cypher.OptionalGroup{Vertices: pn.qg.Vertices, Edges: pn.qg.Edges}))
	for _, g := range groups {
		if g != group {
			outer.ids = outer.ids.union(lv.groupVars(g))
		}
	}
	return pn.combine(plans, nil, outer, func(*partial) {})
}

// leaves returns a leaf plan per vertex and per simple edge, and the
// variable-length edges apart. With reuse, structurally identical leaves share
// one cached operator behind aliases: the first leaf of a signature is wrapped
// in a Cached, every later one is an Alias of that which renames the first
// one's variables, column by column, to its own.
func (pn *planning) leaves(vertices []*cypher.QueryVertex, edges []*cypher.QueryEdge, reuse bool) (plans []*partial, varLength []*cypher.QueryEdge) {
	type canonicalLeaf struct {
		op   operators.Operator
		vars []string // canonical variable names in column order
	}
	canonical := map[string]canonicalLeaf{}
	add := func(sig string, cols []string, first int, card float64, leaf func() operators.Operator) {
		var op operators.Operator
		if canon, ok := canonical[sig]; ok {
			rename := make(map[string]string, len(cols))
			for i, v := range canon.vars {
				rename[v] = cols[i]
			}
			op = operators.NewAlias(canon.op, rename)
		} else {
			op = leaf()
			pn.est[op] = card
			if reuse {
				op = operators.NewCached(op)
				canonical[sig] = canonicalLeaf{op: op, vars: cols}
			}
		}
		pn.est[op] = card
		var vars varSet
		for _, v := range cols {
			vars = vars.union(pn.lv.bit(v))
		}
		plans = append(plans, &partial{op: op, card: card, vars: vars, first: first})
	}
	for k, qv := range vertices {
		first := 3*len(edges) + k
		for e := len(edges) - 1; e >= 0; e-- { // the earliest edge, its source first
			if edges[e].Target == qv.Var {
				first = 3*e + 1
			}
			if edges[e].Source == qv.Var {
				first = 3 * e
			}
		}
		add("vertex\x01"+vertexSignature(qv), []string{qv.Var}, first, pn.vertexLeafCard(qv),
			func() operators.Operator { return operators.NewFilterAndProjectVertices(qv) })
	}
	for e, qe := range edges {
		if qe.IsVarLength() {
			varLength = append(varLength, qe)
			continue
		}
		cols := []string{qe.Source, qe.Var}
		if qe.Source != qe.Target {
			cols = append(cols, qe.Target)
		}
		add("edge\x01"+edgeSignature(qe), cols, 3*e+2, pn.edgeLeafCard(qe),
			func() operators.Operator { return operators.NewFilterAndProjectEdges(qe) })
	}
	return plans, varLength
}

// vertexSignature renders a query vertex's structure with its variable name
// normalized away, so structurally identical vertices share a leaf.
func vertexSignature(qv *cypher.QueryVertex) string {
	return strings.Join(qv.Labels, "|") + "\x01" +
		normalizePreds(qv.Predicates, map[string]string{qv.Var: "\x02"}) + "\x01" +
		strings.Join(qv.Projection, ",")
}

// edgeSignature is the edge-side analogue; loop edges ((a)-[e]->(a)) and
// undirected edges have different physical shapes and never unify with
// directed non-loops.
func edgeSignature(qe *cypher.QueryEdge) string {
	return fmt.Sprintf("%s\x01%s\x01%s\x01%v\x01%v",
		strings.Join(qe.Types, "|"),
		normalizePreds(qe.Predicates, map[string]string{qe.Var: "\x02"}),
		strings.Join(qe.Projection, ","),
		qe.Undirected, qe.Source == qe.Target)
}

func normalizePreds(preds []cypher.Expr, rename map[string]string) string {
	parts := make([]string, len(preds))
	for i, p := range preds {
		parts[i] = cypher.ExprString(cypher.RenameVars(p, rename))
	}
	sort.Strings(parts)
	return strings.Join(parts, "&")
}
