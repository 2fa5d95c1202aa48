package planner

import (
	"math"

	"gradoop/internal/cypher"
)

// This file holds the cardinality estimation rules (§3.2): leaf
// cardinalities from label distributions and predicate selectivities, join
// cardinalities from the textbook distinct-value formula, and expansion
// factors for variable length paths from average out-degrees.

// defaultComparisonSelectivity is the assumed fraction of elements passing a
// range comparison when nothing better is known (the classic 1/3).
const defaultComparisonSelectivity = 1.0 / 3

// vertexLeafCard estimates the output of FilterAndProjectVertices.
func (pl *Planner) vertexLeafCard(qv *cypher.QueryVertex) float64 {
	card := float64(pl.Stats.VertexCardinality(qv.Labels))
	for _, pred := range qv.Predicates {
		card *= pl.predicateSelectivity(pred, qv.Labels, true)
	}
	return math.Max(card, 1)
}

// edgeLeafCard estimates the output of FilterAndProjectEdges.
func (pl *Planner) edgeLeafCard(qe *cypher.QueryEdge) float64 {
	card := float64(pl.Stats.EdgeCardinality(qe.Types))
	for _, pred := range qe.Predicates {
		card *= pl.predicateSelectivity(pred, qe.Types, false)
	}
	if qe.Undirected {
		card *= 2
	}
	return math.Max(card, 1)
}

// predicateSelectivity estimates one element-centric conjunct: equality with
// a literal selects 1/d of the elements where d is the distinct value count
// of the accessed key, range comparisons 1/3, everything else 1/2.
func (pl *Planner) predicateSelectivity(pred cypher.Expr, labels []string, isVertex bool) float64 {
	b, ok := pred.(*cypher.BinaryExpr)
	if !ok {
		return 0.5
	}
	pa, paOK := b.L.(*cypher.PropertyAccess)
	// A deferred $parameter estimates like the literal it will be bound to:
	// selectivity is value-independent, so template plans keep the shape the
	// eagerly-bound plan would have.
	litOK := false
	switch b.R.(type) {
	case *cypher.Literal, *cypher.Param:
		litOK = true
	}
	if !paOK || !litOK {
		// literal op literal or access op access on the same element.
		return 0.5
	}
	switch b.Op {
	case cypher.OpEQ:
		var d int64
		if isVertex {
			d = pl.Stats.DistinctVertexPropertyValues(labels, pa.Key)
		} else {
			d = pl.Stats.DistinctEdgePropertyValues(labels, pa.Key)
		}
		return 1 / float64(d)
	case cypher.OpNEQ:
		var d int64
		if isVertex {
			d = pl.Stats.DistinctVertexPropertyValues(labels, pa.Key)
		} else {
			d = pl.Stats.DistinctEdgePropertyValues(labels, pa.Key)
		}
		return 1 - 1/float64(d)
	case cypher.OpLT, cypher.OpLE, cypher.OpGT, cypher.OpGE:
		return defaultComparisonSelectivity
	default:
		return 0.5
	}
}

// varDistinct estimates the number of distinct data vertices a query
// variable can bind to — the distinct-value count of a join attribute.
func (pl *Planner) varDistinct(qg *cypher.QueryGraph, v string) float64 {
	if qv, ok := qg.VertexByVar(v); ok {
		return pl.vertexLeafCard(qv)
	}
	if qe, ok := qg.EdgeByVar(v); ok {
		return pl.edgeLeafCard(qe)
	}
	return 1
}

// joinCard applies |L ⋈ R| = |L|·|R| / Π_v max(1, d(v)) over the shared
// variables v (Garcia-Molina et al.).
func (pl *Planner) joinCard(qg *cypher.QueryGraph, lv *liveness, l, r *partial) float64 {
	card := l.card * r.card
	l.vars.each(func(i int) { // in name order
		if r.vars.has(i) {
			card /= math.Max(1, pl.varDistinct(qg, lv.vars[i].name))
		}
	})
	return math.Max(card, 1)
}

// expandCard estimates a variable length expansion: each hop multiplies by
// the average out-degree of the traversed edge types, summed over the
// admissible path lengths. Closing a cycle (far endpoint already bound)
// divides by the endpoint's distinct count.
func (pl *Planner) expandCard(qg *cypher.QueryGraph, lv *liveness, p *partial, qe *cypher.QueryEdge, reverse bool) float64 {
	deg := pl.Stats.AverageOutDegree(qe.Types)
	if qe.Undirected {
		deg *= 2
	}
	var factor float64
	for k := qe.MinHops; k <= qe.MaxHops; k++ {
		if k == 0 {
			factor++
			continue
		}
		factor += math.Pow(deg, float64(k))
	}
	card := p.card * math.Max(factor, 1e-9)
	endVar := qe.Target
	if reverse {
		endVar = qe.Source
	}
	if p.vars.meets(lv.bit(endVar)) {
		card /= math.Max(1, pl.varDistinct(qg, endVar))
	}
	return math.Max(card, 1)
}
