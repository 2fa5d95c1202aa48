package planner

import (
	"fmt"
	"hash/fnv"
	"io"

	"gradoop/internal/cypher"
	"gradoop/internal/operators"
)

// Fingerprint returns a deterministic canonical key for the plan: an FNV-64a
// hash over the operator tree's structure (descriptions in tree order). Two
// plans of the same query template under the same semantics and
// statistics produce the same fingerprint; the session's plan cache and the
// /explain endpoint report it.
func (p *QueryPlan) Fingerprint() string {
	h := fnv.New64a()
	var walk func(op operators.Operator)
	walk = func(op operators.Operator) {
		io.WriteString(h, op.Description())
		io.WriteString(h, "(")
		for _, c := range op.Children() {
			walk(c)
		}
		io.WriteString(h, ")")
	}
	walk(p.Root)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Rebind re-instantiates a cached template plan for one execution: it clones
// the operator tree against a fresh GraphAccess (operators hold references
// to env-bound datasets and Cached nodes memoize their result, so a plan
// instance is single-use), substituting the binding's query elements — whose
// predicates carry concrete parameter values — for the template's. Shared
// subtrees (the planner's recurring-subquery Cached leaves) stay shared in
// the clone, and the template's cardinality estimates carry over so Explain
// on the bound plan matches the template.
func Rebind(p *QueryPlan, access GraphAccess, b *cypher.Binding) (*QueryPlan, error) {
	r := &rebinder{
		access: access,
		b:      b,
		memo:   map[operators.Operator]operators.Operator{},
		oldEst: p.Estimates,
		est:    map[operators.Operator]float64{},
	}
	root, err := r.rebind(p.Root)
	if err != nil {
		return nil, err
	}
	return &QueryPlan{Root: root, Estimates: r.est}, nil
}

type rebinder struct {
	access GraphAccess
	b      *cypher.Binding
	memo   map[operators.Operator]operators.Operator
	oldEst map[operators.Operator]float64
	est    map[operators.Operator]float64
}

func (r *rebinder) rebind(op operators.Operator) (operators.Operator, error) {
	if done, ok := r.memo[op]; ok {
		return done, nil
	}
	out, err := r.build(op)
	if err != nil {
		return nil, err
	}
	r.memo[op] = out
	if est, ok := r.oldEst[op]; ok {
		r.est[out] = est
	}
	return out, nil
}

func (r *rebinder) build(op operators.Operator) (operators.Operator, error) {
	switch x := op.(type) {
	case *operators.FilterAndProjectVertices:
		qv, ok := r.b.Vertices[x.Vertex]
		if !ok {
			return nil, fmt.Errorf("planner: rebind: unknown query vertex %q", x.Vertex.Var)
		}
		return operators.NewFilterAndProjectVertices(r.access.Vertices(qv.Labels), qv), nil
	case *operators.FilterAndProjectEdges:
		qe, ok := r.b.Edges[x.Edge]
		if !ok {
			return nil, fmt.Errorf("planner: rebind: unknown query edge %q", x.Edge.Var)
		}
		return operators.NewFilterAndProjectEdges(r.access.Edges(qe.Types), qe), nil
	case *operators.Cached:
		inner, err := r.rebind(x.Inner)
		if err != nil {
			return nil, err
		}
		return operators.NewCached(inner), nil
	case *operators.Alias:
		in, err := r.rebind(x.In)
		if err != nil {
			return nil, err
		}
		return operators.NewAlias(in, x.Rename), nil
	case *operators.FilterEmbeddings:
		in, err := r.rebind(x.In)
		if err != nil {
			return nil, err
		}
		preds, err := r.exprs(x.Predicates)
		if err != nil {
			return nil, err
		}
		return operators.NewFilterEmbeddings(in, preds), nil
	case *operators.ProjectEmbeddings:
		in, err := r.rebind(x.In)
		if err != nil {
			return nil, err
		}
		return operators.NewProjectEmbeddings(in, x.KeepVars, x.KeepProps), nil
	case *operators.JoinEmbeddings:
		l, rgt, err := r.pair(x.Left, x.Right)
		if err != nil {
			return nil, err
		}
		return operators.NewJoinEmbeddings(l, rgt, x.Morph), nil
	case *operators.CartesianProduct:
		l, rgt, err := r.pair(x.Left, x.Right)
		if err != nil {
			return nil, err
		}
		return operators.NewCartesianProduct(l, rgt, x.Morph), nil
	case *operators.ExpandEmbeddings:
		in, err := r.rebind(x.In)
		if err != nil {
			return nil, err
		}
		qe, ok := r.b.Edges[x.Edge]
		if !ok {
			return nil, fmt.Errorf("planner: rebind: unknown query edge %q", x.Edge.Var)
		}
		return operators.NewExpandEmbeddings(in, r.access.Edges(qe.Types).Union(), qe, x.Morph, x.Reverse)
	case *operators.SemiJoinEmbeddings:
		l, rgt, err := r.pair(x.Left, x.Right)
		if err != nil {
			return nil, err
		}
		return operators.NewSemiJoinEmbeddings(l, rgt, x.Morph, x.Negated), nil
	case *operators.OptionalJoinEmbeddings:
		l, rgt, err := r.pair(x.Left, x.Right)
		if err != nil {
			return nil, err
		}
		preds, err := r.exprs(x.Predicates)
		if err != nil {
			return nil, err
		}
		return operators.NewOptionalJoinEmbeddings(l, rgt, x.Morph, preds), nil
	default:
		return nil, fmt.Errorf("planner: rebind: unsupported operator %T", op)
	}
}

func (r *rebinder) pair(left, right operators.Operator) (operators.Operator, operators.Operator, error) {
	l, err := r.rebind(left)
	if err != nil {
		return nil, nil, err
	}
	rgt, err := r.rebind(right)
	if err != nil {
		return nil, nil, err
	}
	return l, rgt, nil
}

// exprs resolves the template predicates' $parameters against the binding.
// Predicates attached to query vertices/edges are already resolved (Bind
// cloned them); this covers the expression lists operators hold directly
// (FilterEmbeddings, OptionalJoinEmbeddings).
func (r *rebinder) exprs(in []cypher.Expr) ([]cypher.Expr, error) {
	if len(in) == 0 {
		return nil, nil
	}
	out := make([]cypher.Expr, len(in))
	for i, e := range in {
		resolved, err := cypher.ResolveParams(e, r.b.Params)
		if err != nil {
			return nil, err
		}
		out[i] = resolved
	}
	return out, nil
}
