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

// IndexedAccess reads the label-partitioned store, loading only the ranges a
// label predicate selects - one dataset per label, which a leaf walks one by
// one. A session and a cluster worker plan and execute against it.
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
// operator, its estimated cardinality and the variables its rows bind.
type partial struct {
	op   operators.Operator
	card float64
	vars varSet
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
// index, the estimates recorded so far and the WHERE conjuncts no operator
// applies yet.
type planning struct {
	*Planner
	qg      *cypher.QueryGraph
	lv      *liveness
	est     map[operators.Operator]float64
	pending []cypher.Expr
}

func (pl *Planner) start(qg *cypher.QueryGraph, graphs bool) (*planning, error) {
	if len(qg.Vertices) == 0 {
		return nil, fmt.Errorf("planner: query graph has no vertices")
	}
	return &planning{Planner: pl, qg: qg, lv: newLiveness(qg, pl.Morph, graphs), est: map[operators.Operator]float64{},
		pending: append([]cypher.Expr(nil), qg.Global...)}, nil
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
	return pl.plan(access, qg, false)
}

// PlanGraphs is Plan for the graph collection of Definition 2.4: its rows
// carry every binding of a match, anonymous variables included.
func (pl *Planner) PlanGraphs(access GraphAccess, qg *cypher.QueryGraph) (*QueryPlan, error) {
	return pl.plan(access, qg, true)
}

func (pl *Planner) plan(access GraphAccess, qg *cypher.QueryGraph, graphs bool) (*QueryPlan, error) {
	pn, err := pl.start(qg, graphs)
	if err != nil {
		return nil, err
	}
	lv, est := pn.lv, pn.est

	// Leaf plans: one per query vertex and one per simple query edge.
	// Structurally identical leaves share one cached operator behind
	// aliases unless reuse is disabled: the first leaf of a signature is
	// wrapped in a Cached, every later one is an Alias of that which renames
	// the first one's variables, column by column, to its own.
	type canonicalLeaf struct {
		op   operators.Operator
		vars []string // canonical variable names in column order
	}
	canonical := map[string]canonicalLeaf{}
	var plans []*partial
	addLeaf := func(sig string, cols []string, card float64, leaf func() operators.Operator) {
		var op operators.Operator
		if canon, ok := canonical[sig]; ok {
			rename := make(map[string]string, len(cols))
			for i, v := range canon.vars {
				rename[v] = cols[i]
			}
			op = operators.NewAlias(canon.op, rename)
		} else {
			op = leaf()
			est[op] = card
			if !pl.DisableReuse {
				op = operators.NewCached(op)
				canonical[sig] = canonicalLeaf{op: op, vars: cols}
			}
		}
		est[op] = card
		var vars varSet
		for _, v := range cols {
			vars = vars.union(lv.bit(v))
		}
		plans = append(plans, &partial{op: op, card: card, vars: vars})
	}
	for _, qv := range qg.Vertices {
		addLeaf("vertex\x01"+vertexSignature(qv), []string{qv.Var}, pl.vertexLeafCard(qv),
			func() operators.Operator { return operators.NewFilterAndProjectVertices(qv) })
	}
	var varLength []*cypher.QueryEdge
	for _, qe := range qg.Edges {
		if qe.IsVarLength() {
			varLength = append(varLength, qe)
			continue
		}
		cols := []string{qe.Source, qe.Var}
		if qe.Source != qe.Target {
			cols = append(cols, qe.Target)
		}
		addLeaf("edge\x01"+edgeSignature(qe), cols, pl.edgeLeafCard(qe),
			func() operators.Operator { return operators.NewFilterAndProjectEdges(qe) })
	}

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
	filterRight(root.op)

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

// filterRight has every inner join of op's tree, the mandatory pattern's,
// filter its right input by its left input's keys where the right input has a
// join to take them (JoinEmbeddings.FilterRight). The joins of an OPTIONAL
// MATCH or exists() group take none: they are planned apart.
func filterRight(op operators.Operator) {
	if j, ok := op.(*operators.JoinEmbeddings); ok {
		j.FilterRight()
	}
	for _, c := range op.Children() {
		filterRight(c)
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

// choose is the greedy step's test hook: when set, a step takes the
// candidate choose(n) picks of its n legal ones - every join in either input
// order, every expansion in every direction its input allows, every cartesian
// product of two partials that share no variable - instead of the one with
// the smallest estimate. It is nil but in the conformance harness, which
// reaches it by go:linkname to run each case under seeded random plans: a
// result must not depend on its plan.
var choose func(n int) int

// combine is the greedy loop of §3.2, the planner's only one: until a single
// plan covers every leaf and every variable-length edge is expanded, it takes
// the join or expansion with the smallest estimated result - the cheapest
// cartesian product when nothing connects - records its estimate and hands
// the new partial to applyPredicates. A query's mandatory pattern and every
// OPTIONAL MATCH or exists() group are ordered by it. outer is what the query
// outside these partials reads of them.
func (pn *planning) combine(plans []*partial, varLength []*cypher.QueryEdge, outer reads,
	applyPredicates func(*partial)) (*partial, error) {
	pl, qg, lv, est := pn.Planner, pn.qg, pn.lv, pn.est
	for len(plans) > 1 || len(varLength) > 0 {
		type candidate struct {
			kind    string // "join", "expand", "cross"
			i, j    int    // plan indices (j unused for expand)
			edge    int    // index into varLength for expand
			reverse bool
			swap    bool // a chosen join's left input is plans[j], not plans[i]
			card    float64
		}
		best := candidate{card: math.Inf(1)}
		var legal []candidate // what choose picks from

		for i := 0; i < len(plans); i++ {
			for j := i + 1; j < len(plans); j++ {
				if !plans[i].vars.meets(plans[j].vars) {
					if choose != nil {
						legal = append(legal, candidate{kind: "cross", i: i, j: j, card: plans[i].card * plans[j].card})
					}
					continue
				}
				card := pl.joinCard(qg, lv, plans[i], plans[j])
				if card < best.card {
					best = candidate{kind: "join", i: i, j: j, card: card}
				}
				if choose != nil {
					legal = append(legal, candidate{kind: "join", i: i, j: j, card: card}, candidate{kind: "join", i: i, j: j, swap: true, card: card})
				}
			}
		}
		for ei, qe := range varLength {
			for i, p := range plans {
				fw := p.vars.meets(lv.bit(qe.Source))
				bw := p.vars.meets(lv.bit(qe.Target))
				if fw {
					card := pl.expandCard(qg, lv, p, qe, false)
					if card < best.card {
						best = candidate{kind: "expand", i: i, edge: ei, reverse: false, card: card}
					}
					if choose != nil {
						legal = append(legal, candidate{kind: "expand", i: i, edge: ei, card: card})
					}
				}
				if bw && (!fw || choose != nil) {
					card := pl.expandCard(qg, lv, p, qe, true)
					if card < best.card && !fw {
						best = candidate{kind: "expand", i: i, edge: ei, reverse: true, card: card}
					}
					if choose != nil {
						legal = append(legal, candidate{kind: "expand", i: i, edge: ei, reverse: true, card: card})
					}
				}
			}
		}
		if len(legal) > 0 {
			best = legal[choose(len(legal))]
		}
		if math.IsInf(best.card, 1) {
			// Disconnected pattern: cheapest cartesian product.
			if len(plans) < 2 {
				return nil, fmt.Errorf("planner: cannot complete plan (unreachable variable-length edge)")
			}
			sort.Slice(plans, func(a, b int) bool { return plans[a].card < plans[b].card })
			best = candidate{kind: "cross", i: 0, j: 1}
		}

		switch best.kind {
		case "cross":
			l, r := plans[best.i], plans[best.j]
			out := l.vars.union(r.vars)
			op := operators.NewCartesianProduct(l.op, r.op, pl.Morph, pn.joined(out, plans, [2]int{best.i, best.j}, varLength, outer).live)
			merged := &partial{op: op, card: l.card * r.card, vars: out}
			est[op] = merged.card
			applyPredicates(merged)
			plans = append([]*partial{merged}, without(plans, best.i, best.j)...)
		case "join":
			l, r := plans[best.i], plans[best.j]
			// Build side (left) should be the smaller input, unless chosen.
			if choose == nil && r.card < l.card || best.swap {
				l, r = r, l
			}
			out := l.vars.union(r.vars)
			op := operators.NewJoinEmbeddings(l.op, r.op, pl.Morph, pn.joined(out, plans, [2]int{best.i, best.j}, varLength, outer).live)
			merged := &partial{op: op, card: best.card, vars: out}
			est[op] = best.card
			applyPredicates(merged)
			plans = append(without(plans, best.i, best.j), merged)
		case "expand":
			p := plans[best.i]
			qe := varLength[best.edge]
			varLength = append(varLength[:best.edge], varLength[best.edge+1:]...)
			out := p.vars.union(lv.edgeVars(qe))
			op, err := operators.NewExpandEmbeddings(p.op, qe, pl.Morph, best.reverse,
				pn.joined(out, plans, [2]int{best.i, best.i}, varLength, outer).live)
			if err != nil {
				return nil, err
			}
			merged := &partial{op: op, card: best.card, vars: out}
			est[op] = best.card
			applyPredicates(merged)
			plans[best.i] = merged
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
// combined greedily by estimated cardinality. Its rows carry what the join
// with the mandatory solutions and the other groups of groups read.
func (pn *planning) planGroup(group *cypher.OptionalGroup, groups []*cypher.OptionalGroup) (*partial, error) {
	lv, est := pn.lv, pn.est
	var plans []*partial
	for _, qv := range group.Vertices {
		leaf := operators.NewFilterAndProjectVertices(qv)
		card := pn.vertexLeafCard(qv)
		est[leaf] = card
		plans = append(plans, &partial{op: leaf, card: card, vars: lv.bit(qv.Var)})
	}
	for _, qe := range group.Edges {
		leaf := operators.NewFilterAndProjectEdges(qe)
		card := pn.edgeLeafCard(qe)
		est[leaf] = card
		plans = append(plans, &partial{op: leaf, card: card, vars: lv.edgeVars(qe)})
	}
	if len(plans) == 0 {
		return nil, fmt.Errorf("planner: empty OPTIONAL MATCH group")
	}
	outer := lv.predReads(groupPredicates(pn.qg.Optional)...)
	for _, qv := range pn.qg.Vertices {
		outer.ids = outer.ids.union(lv.bit(qv.Var))
	}
	for _, qe := range pn.qg.Edges {
		outer.ids = outer.ids.union(lv.edgeVars(qe))
	}
	for _, g := range groups {
		if g != group {
			outer.ids = outer.ids.union(lv.groupVars(g))
		}
	}
	return pn.combine(plans, nil, outer, func(*partial) {})
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
