package planner

import (
	"fmt"

	"gradoop/internal/cypher"
	"gradoop/internal/operators"
)

// PlanLeftDeep builds a plan without cost-based reordering: leaves are
// joined left-deep in the order the query states them. It exists as the
// ablation baseline for the greedy planner — the difference between the two
// is exactly the benefit of §3.2's statistics-driven join ordering.
// Predicate placement and the columns a row carries are the greedy planner's,
// so the comparison isolates join order.
func (pl *Planner) PlanLeftDeep(access GraphAccess, qg *cypher.QueryGraph) (*QueryPlan, error) {
	pn, err := pl.start(qg, false)
	if err != nil {
		return nil, err
	}
	lv, est := pn.lv, pn.est

	var leaves []*partial
	var seenVertex varSet
	vertexLeaf := func(name string) *partial {
		qv, _ := qg.VertexByVar(name)
		leaf := operators.NewFilterAndProjectVertices(qv)
		card := pl.vertexLeafCard(qv)
		est[leaf] = card
		seenVertex = seenVertex.union(lv.bit(name))
		return &partial{op: leaf, card: card, vars: lv.bit(name)}
	}
	var varLength []*cypher.QueryEdge
	for _, qe := range qg.Edges {
		if !seenVertex.meets(lv.bit(qe.Source)) {
			leaves = append(leaves, vertexLeaf(qe.Source))
		}
		if !seenVertex.meets(lv.bit(qe.Target)) {
			leaves = append(leaves, vertexLeaf(qe.Target))
		}
		if qe.IsVarLength() {
			varLength = append(varLength, qe)
			continue
		}
		leaf := operators.NewFilterAndProjectEdges(qe)
		card := pl.edgeLeafCard(qe)
		est[leaf] = card
		leaves = append(leaves, &partial{op: leaf, card: card, vars: lv.edgeVars(qe)})
	}
	for _, qv := range qg.Vertices {
		if !seenVertex.meets(lv.bit(qv.Var)) {
			leaves = append(leaves, vertexLeaf(qv.Var))
		}
	}

	applyPredicates := func(p *partial) {
		if pn.filter(p) > 0 {
			est[p.op] = p.card
		}
	}
	for _, p := range leaves {
		applyPredicates(p)
	}

	groups := append(append([]*cypher.OptionalGroup(nil), qg.Optional...), existenceGroups(qg)...)
	outer := lv.predReads(groupPredicates(qg.Optional)...)
	outer.ids = outer.ids.union(lv.groupVars(groups...))
	// cur is leaves[0] and, as they are joined, the partials after it: what
	// is left to join is leaves[1:] but the ones done.
	cur := leaves[0]
	rest := leaves[1:]
	joined := func(out varSet, skip int) readSet {
		return pn.joined(out, rest, [2]int{skip, skip}, varLength, outer)
	}
	for len(rest) > 0 || len(varLength) > 0 {
		progress := false
		// First applicable expansion, in query order.
		for i, qe := range varLength {
			fw, bw := cur.vars.meets(lv.bit(qe.Source)), cur.vars.meets(lv.bit(qe.Target))
			if fw || bw {
				varLength = append(varLength[:i], varLength[i+1:]...)
				out := cur.vars.union(lv.edgeVars(qe))
				op, err := operators.NewExpandEmbeddings(cur.op, qe, pl.Morph, !fw, joined(out, -1).live)
				if err != nil {
					return nil, err
				}
				cur = &partial{op: op, card: cur.card, vars: out}
				est[op] = cur.card
				applyPredicates(cur)
				progress = true
				break
			}
		}
		if progress {
			continue
		}
		// First leaf sharing a variable, in query order.
		for i, p := range rest {
			if !cur.vars.meets(p.vars) {
				continue
			}
			out := cur.vars.union(p.vars)
			op := operators.NewJoinEmbeddings(cur.op, p.op, pl.Morph, joined(out, i).live)
			cur = &partial{op: op, card: cur.card * p.card, vars: out}
			est[op] = cur.card
			applyPredicates(cur)
			rest = append(rest[:i], rest[i+1:]...)
			progress = true
			break
		}
		if progress {
			continue
		}
		if len(rest) == 0 {
			return nil, fmt.Errorf("planner: cannot complete left-deep plan")
		}
		// Disconnected: cartesian with the next leaf.
		out := cur.vars.union(rest[0].vars)
		op := operators.NewCartesianProduct(cur.op, rest[0].op, pl.Morph, joined(out, 0).live)
		cur = &partial{op: op, card: cur.card * rest[0].card, vars: out}
		est[op] = cur.card
		applyPredicates(cur)
		rest = rest[1:]
	}
	if len(pn.pending) > 0 {
		f := operators.NewFilterEmbeddings(cur.op, pn.pending)
		est[f] = cur.card
		cur.op = f
		pn.pending = nil
	}
	for _, eg := range qg.Existence {
		sub, err := pn.planGroup(&eg.OptionalGroup, groups)
		if err != nil {
			return nil, err
		}
		op := operators.NewSemiJoinEmbeddings(cur.op, sub.op, pl.Morph, eg.Negated)
		est[op] = cur.card
		cur = &partial{op: op, card: cur.card, vars: cur.vars}
	}
	for i, group := range qg.Optional {
		sub, err := pn.planGroup(group, groups)
		if err != nil {
			return nil, err
		}
		out := cur.vars.union(sub.vars)
		op := operators.NewOptionalJoinEmbeddings(cur.op, sub.op, pl.Morph, group.Predicates, pn.extended(out, qg.Optional[i+1:]).live)
		est[op] = cur.card
		cur = &partial{op: op, card: cur.card, vars: out}
	}
	return &QueryPlan{Root: cur.op, Estimates: est, access: access}, nil
}
