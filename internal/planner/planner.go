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

// GraphAccess abstracts how leaf operators read the data graph, so the
// planner works over both the plain representation (full scans) and the
// IndexedLogicalGraph (per-label datasets, §3.4).
type GraphAccess interface {
	Env() *dataflow.Env
	// Vertices returns what a leaf scans for a label alternation (empty =
	// all).
	Vertices(labels []string) epgm.Scan[epgm.Vertex]
	// Edges returns what a leaf scans for a type alternation.
	Edges(types []string) epgm.Scan[epgm.Edge]
}

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
// estimates recorded while building it.
type QueryPlan struct {
	Root      operators.Operator
	Estimates map[operators.Operator]float64
}

// Execute evaluates the plan.
func (p *QueryPlan) Execute() *dataflow.Dataset[embedding.Embedding] { return p.Root.Evaluate() }

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
	var walk func(op operators.Operator, depth int)
	walk = func(op operators.Operator, depth int) {
		fmt.Fprintf(&sb, "%s%s", strings.Repeat("  ", depth), op.Description())
		if est, ok := p.Estimates[op]; ok {
			fmt.Fprintf(&sb, "  ~%.0f rows", est)
		}
		if annot != nil {
			if a := annot(op); a != "" {
				sb.WriteString("  " + a)
			}
		}
		sb.WriteByte('\n')
		for _, c := range op.Children() {
			walk(c, depth+1)
		}
	}
	walk(p.Root, 0)
	return sb.String()
}

// PlanNode is one operator of the tree in Explain order (parent before
// children, children in declaration order) with its rendering depth.
type PlanNode struct {
	Op    operators.Operator
	Depth int
}

// Nodes flattens the operator tree in exactly the order ExplainWith visits
// it, so per-node metadata built from this slice lines up index-for-index
// with Explain's annotator calls.
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

// partial is one in-progress sub-plan during greedy enumeration.
type partial struct {
	op   operators.Operator
	card float64
	vars map[string]bool
}

func (p *partial) covers(v string) bool { return p.vars[v] }

// Plan builds a physical plan for the query graph.
func (pl *Planner) Plan(access GraphAccess, qg *cypher.QueryGraph) (*QueryPlan, error) {
	if len(qg.Vertices) == 0 {
		return nil, fmt.Errorf("planner: query graph has no vertices")
	}
	est := map[operators.Operator]float64{}

	// Leaf plans: one per query vertex and one per simple query edge.
	// Structurally identical leaves share one cached operator behind
	// aliases unless reuse is disabled.
	type canonicalLeaf struct {
		op   operators.Operator
		vars []string // canonical variable names in column order
	}
	vertexLeaves := map[string]canonicalLeaf{}
	edgeLeaves := map[string]canonicalLeaf{}

	var plans []*partial
	for _, qv := range qg.Vertices {
		card := pl.vertexLeafCard(qv)
		var op operators.Operator
		sig := vertexSignature(qv)
		if canon, ok := vertexLeaves[sig]; ok && !pl.DisableReuse {
			op = operators.NewAlias(canon.op, map[string]string{canon.vars[0]: qv.Var})
		} else {
			leaf := operators.NewFilterAndProjectVertices(access.Vertices(qv.Labels), qv)
			est[leaf] = card
			if !pl.DisableReuse {
				cached := operators.NewCached(leaf)
				est[cached] = card
				vertexLeaves[sig] = canonicalLeaf{op: cached, vars: []string{qv.Var}}
				op = cached
			} else {
				op = leaf
			}
		}
		est[op] = card
		plans = append(plans, &partial{op: op, card: card, vars: map[string]bool{qv.Var: true}})
	}
	var varLength []*cypher.QueryEdge
	for _, qe := range qg.Edges {
		if qe.IsVarLength() {
			varLength = append(varLength, qe)
			continue
		}
		card := pl.edgeLeafCard(qe)
		var op operators.Operator
		sig := edgeSignature(qe)
		if canon, ok := edgeLeaves[sig]; ok && !pl.DisableReuse {
			rename := map[string]string{canon.vars[0]: qe.Source, canon.vars[1]: qe.Var}
			if len(canon.vars) == 3 {
				rename[canon.vars[2]] = qe.Target
			}
			op = operators.NewAlias(canon.op, rename)
		} else {
			leaf := operators.NewFilterAndProjectEdges(access.Edges(qe.Types), qe)
			est[leaf] = card
			if !pl.DisableReuse {
				cached := operators.NewCached(leaf)
				est[cached] = card
				vars := []string{qe.Source, qe.Var}
				if qe.Source != qe.Target {
					vars = append(vars, qe.Target)
				}
				edgeLeaves[sig] = canonicalLeaf{op: cached, vars: vars}
				op = cached
			} else {
				op = leaf
			}
		}
		est[op] = card
		vars := map[string]bool{qe.Source: true, qe.Var: true, qe.Target: true}
		plans = append(plans, &partial{op: op, card: card, vars: vars})
	}

	// Global predicates not yet applied, keyed by their variable sets and
	// property references: a predicate is evaluable only once the partial
	// covers all referenced variables AND its embeddings carry the needed
	// property columns (vertex properties live on vertex leaves, not on the
	// edge leaves that first cover the variable).
	type pendingPred struct {
		expr  cypher.Expr
		vars  []string
		props []embedding.PropRef
	}
	var pending []pendingPred
	for _, g := range qg.Global {
		pp := pendingPred{expr: g, vars: cypher.ExprVars(g)}
		cypher.CollectPropAccesses(g, func(variable, key string) {
			pp.props = append(pp.props, embedding.PropRef{Var: variable, Key: key})
		})
		pending = append(pending, pp)
	}
	applyPredicates := func(p *partial) {
		var usable []cypher.Expr
		rest := pending[:0]
		meta := p.op.Meta()
		for _, pp := range pending {
			all := true
			for _, v := range pp.vars {
				if !p.covers(v) {
					all = false
					break
				}
			}
			for _, ref := range pp.props {
				if _, ok := meta.PropColumn(ref.Var, ref.Key); !ok {
					all = false
					break
				}
			}
			if all {
				usable = append(usable, pp.expr)
			} else {
				rest = append(rest, pp)
			}
		}
		pending = rest
		if len(usable) > 0 {
			f := operators.NewFilterEmbeddings(p.op, usable)
			p.card *= math.Pow(0.25, float64(len(usable)))
			if p.card < 1 {
				p.card = 1
			}
			est[f] = p.card
			p.op = f
		}
	}
	for _, p := range plans {
		applyPredicates(p)
	}

	root, err := pl.combine(access, qg, plans, varLength, est, applyPredicates)
	if err != nil {
		return nil, err
	}
	if len(pending) > 0 {
		exprs := make([]cypher.Expr, len(pending))
		for i, pp := range pending {
			exprs[i] = pp.expr
		}
		f := operators.NewFilterEmbeddings(root.op, exprs)
		est[f] = root.card
		root.op = f
	}

	// exists()/NOT exists() predicates filter the mandatory solutions
	// through semi/anti joins.
	for _, eg := range qg.Existence {
		sub, _, err := pl.planOptionalGroup(access, qg, &eg.OptionalGroup, est)
		if err != nil {
			return nil, err
		}
		op := operators.NewSemiJoinEmbeddings(root.op, sub, pl.Morph, eg.Negated)
		card := math.Max(root.card*0.5, 1)
		est[op] = card
		root = &partial{op: op, card: card, vars: root.vars}
	}

	// OPTIONAL MATCH groups extend the mandatory solutions through left
	// outer joins, in clause order.
	for _, group := range qg.Optional {
		sub, subCard, err := pl.planOptionalGroup(access, qg, group, est)
		if err != nil {
			return nil, err
		}
		op := operators.NewOptionalJoinEmbeddings(root.op, sub, pl.Morph, group.Predicates)
		// Every left row survives; extensions multiply at most by the
		// group's fan-out estimate.
		card := math.Max(root.card, root.card*subCard/math.Max(1, float64(pl.Stats.VertexCount)))
		est[op] = card
		root = &partial{op: op, card: card, vars: unionVars(root.vars, groupVars(group))}
	}
	return &QueryPlan{Root: root.op, Estimates: est}, nil
}

// combine is the greedy loop of §3.2, the planner's only one: until a single
// plan covers every leaf and every variable-length edge is expanded, it takes
// the join or expansion with the smallest estimated result - the cheapest
// cartesian product when nothing connects - records its estimate and hands
// the new partial to applyPredicates. A query's mandatory pattern and every
// OPTIONAL MATCH or exists() group are ordered by it.
func (pl *Planner) combine(access GraphAccess, qg *cypher.QueryGraph, plans []*partial, varLength []*cypher.QueryEdge,
	est map[operators.Operator]float64, applyPredicates func(*partial)) (*partial, error) {
	for len(plans) > 1 || len(varLength) > 0 {
		type candidate struct {
			kind    string // "join", "expand", "cross"
			i, j    int    // plan indices (j unused for expand)
			edge    int    // index into varLength for expand
			reverse bool
			card    float64
		}
		best := candidate{card: math.Inf(1)}

		for i := 0; i < len(plans); i++ {
			for j := i + 1; j < len(plans); j++ {
				shared := sharedVars(plans[i], plans[j])
				if len(shared) == 0 {
					continue
				}
				card := pl.joinCard(qg, plans[i], plans[j], shared)
				if card < best.card {
					best = candidate{kind: "join", i: i, j: j, card: card}
				}
			}
		}
		for ei, qe := range varLength {
			for i, p := range plans {
				fw := p.covers(qe.Source)
				bw := p.covers(qe.Target)
				if fw {
					card := pl.expandCard(qg, p, qe, false)
					if card < best.card {
						best = candidate{kind: "expand", i: i, edge: ei, reverse: false, card: card}
					}
				}
				if bw && !fw {
					card := pl.expandCard(qg, p, qe, true)
					if card < best.card {
						best = candidate{kind: "expand", i: i, edge: ei, reverse: true, card: card}
					}
				}
			}
		}
		if math.IsInf(best.card, 1) {
			// Disconnected pattern: cheapest cartesian product.
			if len(plans) < 2 {
				return nil, fmt.Errorf("planner: cannot complete plan (unreachable variable-length edge)")
			}
			sort.Slice(plans, func(a, b int) bool { return plans[a].card < plans[b].card })
			l, r := plans[0], plans[1]
			op := operators.NewCartesianProduct(l.op, r.op, pl.Morph)
			merged := &partial{op: op, card: l.card * r.card, vars: unionVars(l.vars, r.vars)}
			est[op] = merged.card
			applyPredicates(merged)
			plans = append([]*partial{merged}, plans[2:]...)
			continue
		}

		switch best.kind {
		case "join":
			l, r := plans[best.i], plans[best.j]
			// Build side (left) should be the smaller input.
			if r.card < l.card {
				l, r = r, l
			}
			op := operators.NewJoinEmbeddings(l.op, r.op, pl.Morph)
			merged := &partial{op: op, card: best.card, vars: unionVars(l.vars, r.vars)}
			est[op] = best.card
			applyPredicates(merged)
			next := plans[:0]
			for k, p := range plans {
				if k != best.i && k != best.j {
					next = append(next, p)
				}
			}
			plans = append(next, merged)
		case "expand":
			p := plans[best.i]
			qe := varLength[best.edge]
			op, err := operators.NewExpandEmbeddings(p.op, access.Edges(qe.Types).Union(), qe, pl.Morph, best.reverse)
			if err != nil {
				return nil, err
			}
			merged := &partial{op: op, card: best.card, vars: unionVars(p.vars, map[string]bool{
				qe.Var: true, qe.Source: true, qe.Target: true,
			})}
			est[op] = best.card
			applyPredicates(merged)
			plans[best.i] = merged
			varLength = append(varLength[:best.edge], varLength[best.edge+1:]...)
		}
	}
	return plans[0], nil
}

func groupVars(group *cypher.OptionalGroup) map[string]bool {
	vars := map[string]bool{}
	for _, qv := range group.Vertices {
		vars[qv.Var] = true
	}
	for _, qe := range group.Edges {
		vars[qe.Var] = true
		vars[qe.Source] = true
		vars[qe.Target] = true
	}
	return vars
}

// planOptionalGroup builds the sub-plan producing one OPTIONAL MATCH
// group's embeddings: leaves for the group's new vertices and its edges,
// combined greedily by estimated cardinality.
func (pl *Planner) planOptionalGroup(access GraphAccess, qg *cypher.QueryGraph, group *cypher.OptionalGroup, est map[operators.Operator]float64) (operators.Operator, float64, error) {
	var plans []*partial
	for _, qv := range group.Vertices {
		leaf := operators.NewFilterAndProjectVertices(access.Vertices(qv.Labels), qv)
		card := pl.vertexLeafCard(qv)
		est[leaf] = card
		plans = append(plans, &partial{op: leaf, card: card, vars: map[string]bool{qv.Var: true}})
	}
	for _, qe := range group.Edges {
		leaf := operators.NewFilterAndProjectEdges(access.Edges(qe.Types), qe)
		card := pl.edgeLeafCard(qe)
		est[leaf] = card
		plans = append(plans, &partial{op: leaf, card: card,
			vars: map[string]bool{qe.Source: true, qe.Var: true, qe.Target: true}})
	}
	if len(plans) == 0 {
		return nil, 0, fmt.Errorf("planner: empty OPTIONAL MATCH group")
	}
	root, err := pl.combine(access, qg, plans, nil, est, func(*partial) {})
	if err != nil {
		return nil, 0, err
	}
	return root.op, root.card, nil
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

func sharedVars(a, b *partial) []string {
	var out []string
	for v := range a.vars {
		if b.vars[v] {
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

func unionVars(a, b map[string]bool) map[string]bool {
	out := make(map[string]bool, len(a)+len(b))
	for v := range a {
		out[v] = true
	}
	for v := range b {
		out[v] = true
	}
	return out
}
