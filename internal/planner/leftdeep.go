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
// Predicate placement is identical to the greedy planner, so the comparison
// isolates join order.
func (pl *Planner) PlanLeftDeep(access GraphAccess, qg *cypher.QueryGraph) (*QueryPlan, error) {
	if len(qg.Vertices) == 0 {
		return nil, fmt.Errorf("planner: query graph has no vertices")
	}
	est := map[operators.Operator]float64{}

	var leaves []*partial
	seenVertex := map[string]bool{}
	vertexLeaf := func(name string) *partial {
		qv, _ := qg.VertexByVar(name)
		leaf := operators.NewFilterAndProjectVertices(access.Vertices(qv.Labels), qv)
		card := pl.vertexLeafCard(qv)
		est[leaf] = card
		seenVertex[name] = true
		return &partial{op: leaf, card: card, vars: map[string]bool{name: true}}
	}
	var varLength []*cypher.QueryEdge
	for _, qe := range qg.Edges {
		if !seenVertex[qe.Source] {
			leaves = append(leaves, vertexLeaf(qe.Source))
		}
		if !seenVertex[qe.Target] {
			leaves = append(leaves, vertexLeaf(qe.Target))
		}
		if qe.IsVarLength() {
			varLength = append(varLength, qe)
			continue
		}
		leaf := operators.NewFilterAndProjectEdges(access.Edges(qe.Types), qe)
		card := pl.edgeLeafCard(qe)
		est[leaf] = card
		leaves = append(leaves, &partial{op: leaf, card: card,
			vars: map[string]bool{qe.Source: true, qe.Var: true, qe.Target: true}})
	}
	for _, qv := range qg.Vertices {
		if !seenVertex[qv.Var] {
			leaves = append(leaves, vertexLeaf(qv.Var))
		}
	}

	pending := append([]cypher.Expr(nil), qg.Global...)
	applyPredicates := func(p *partial) {
		var usable []cypher.Expr
		rest := pending[:0]
		meta := p.op.Meta()
		for _, g := range pending {
			ok := true
			for _, v := range cypher.ExprVars(g) {
				if !p.covers(v) {
					ok = false
					break
				}
			}
			cypher.CollectPropAccesses(g, func(variable, key string) {
				if _, has := meta.PropColumn(variable, key); !has {
					ok = false
				}
			})
			if ok {
				usable = append(usable, g)
			} else {
				rest = append(rest, g)
			}
		}
		pending = rest
		if len(usable) > 0 {
			f := operators.NewFilterEmbeddings(p.op, usable)
			est[f] = p.card
			p.op = f
		}
	}
	for _, p := range leaves {
		applyPredicates(p)
	}

	cur := leaves[0]
	rest := leaves[1:]
	for len(rest) > 0 || len(varLength) > 0 {
		progress := false
		// First applicable expansion, in query order.
		for i, qe := range varLength {
			if cur.covers(qe.Source) || cur.covers(qe.Target) {
				reverse := !cur.covers(qe.Source)
				op, err := operators.NewExpandEmbeddings(cur.op, access.Edges(qe.Types).Union(), qe, pl.Morph, reverse)
				if err != nil {
					return nil, err
				}
				cur = &partial{op: op, card: cur.card, vars: unionVars(cur.vars, map[string]bool{
					qe.Var: true, qe.Source: true, qe.Target: true,
				})}
				est[op] = cur.card
				applyPredicates(cur)
				varLength = append(varLength[:i], varLength[i+1:]...)
				progress = true
				break
			}
		}
		if progress {
			continue
		}
		// First leaf sharing a variable, in query order.
		for i, p := range rest {
			if len(sharedVars(cur, p)) == 0 {
				continue
			}
			op := operators.NewJoinEmbeddings(cur.op, p.op, pl.Morph)
			cur = &partial{op: op, card: cur.card * p.card, vars: unionVars(cur.vars, p.vars)}
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
		op := operators.NewCartesianProduct(cur.op, rest[0].op, pl.Morph)
		cur = &partial{op: op, card: cur.card * rest[0].card, vars: unionVars(cur.vars, rest[0].vars)}
		est[op] = cur.card
		applyPredicates(cur)
		rest = rest[1:]
	}
	if len(pending) > 0 {
		f := operators.NewFilterEmbeddings(cur.op, pending)
		est[f] = cur.card
		cur.op = f
	}
	for _, eg := range qg.Existence {
		sub, _, err := pl.planOptionalGroup(access, qg, &eg.OptionalGroup, est)
		if err != nil {
			return nil, err
		}
		op := operators.NewSemiJoinEmbeddings(cur.op, sub, pl.Morph, eg.Negated)
		est[op] = cur.card
		cur = &partial{op: op, card: cur.card, vars: cur.vars}
	}
	for _, group := range qg.Optional {
		sub, _, err := pl.planOptionalGroup(access, qg, group, est)
		if err != nil {
			return nil, err
		}
		op := operators.NewOptionalJoinEmbeddings(cur.op, sub, pl.Morph, group.Predicates)
		est[op] = cur.card
		cur = &partial{op: op, card: cur.card, vars: unionVars(cur.vars, groupVars(group))}
	}
	return &QueryPlan{Root: cur.op, Estimates: est}, nil
}
