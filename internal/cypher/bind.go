package cypher

import "gradoop/internal/epgm"

// Binding is a query-graph template instantiated with concrete parameter
// values: a deep copy of the template in which every $parameter has been
// substituted by its literal. The Vertices and Edges maps translate template
// elements to their bound counterparts, which planner.Rebind uses to
// re-instantiate a cached physical plan against the binding.
type Binding struct {
	// Graph is the bound query graph; it shares no mutable predicate state
	// with the template, so concurrent bindings of one template are safe.
	Graph *QueryGraph
	// Params are the values the binding was produced from.
	Params map[string]epgm.PropertyValue
	// Vertices and Edges map template query elements to bound ones.
	Vertices map[*QueryVertex]*QueryVertex
	Edges    map[*QueryEdge]*QueryEdge
}

// Bind instantiates a deferred query-graph template with parameter values,
// substituting every Param expression. It returns a *MissingParamError for a
// $parameter without a value. The template itself is not modified and may be
// bound again concurrently; the binding shares its expressions where they hold
// no parameter (expressions are never modified in place).
func (g *QueryGraph) Bind(params map[string]epgm.PropertyValue) (*Binding, error) {
	b := &Binding{
		Params:   params,
		Vertices: make(map[*QueryVertex]*QueryVertex, len(g.Vertices)),
		Edges:    make(map[*QueryEdge]*QueryEdge, len(g.Edges)),
	}
	out := &QueryGraph{
		vertexByVar: make(map[string]*QueryVertex, len(g.Vertices)),
		edgeByVar:   make(map[string]*QueryEdge, len(g.Edges)),
	}

	bindVertex := func(qv *QueryVertex) (*QueryVertex, error) {
		preds, err := bindExprs(qv.Predicates, params)
		if err != nil {
			return nil, err
		}
		nv := &QueryVertex{
			Var:        qv.Var,
			Anonymous:  qv.Anonymous,
			Labels:     qv.Labels,
			Predicates: preds,
			Projection: qv.Projection,
		}
		b.Vertices[qv] = nv
		out.vertexByVar[nv.Var] = nv
		return nv, nil
	}
	bindEdge := func(qe *QueryEdge) (*QueryEdge, error) {
		preds, err := bindExprs(qe.Predicates, params)
		if err != nil {
			return nil, err
		}
		ne := &QueryEdge{
			Var:        qe.Var,
			Anonymous:  qe.Anonymous,
			Types:      qe.Types,
			Source:     qe.Source,
			Target:     qe.Target,
			Undirected: qe.Undirected,
			MinHops:    qe.MinHops,
			MaxHops:    qe.MaxHops,
			Predicates: preds,
			Projection: qe.Projection,
		}
		b.Edges[qe] = ne
		out.edgeByVar[ne.Var] = ne
		return ne, nil
	}
	bindGroup := func(og *OptionalGroup) (*OptionalGroup, error) {
		ng := &OptionalGroup{}
		for _, qv := range og.Vertices {
			nv, err := bindVertex(qv)
			if err != nil {
				return nil, err
			}
			ng.Vertices = append(ng.Vertices, nv)
		}
		for _, qe := range og.Edges {
			ne, err := bindEdge(qe)
			if err != nil {
				return nil, err
			}
			ng.Edges = append(ng.Edges, ne)
		}
		var err error
		ng.Predicates, err = bindExprs(og.Predicates, params)
		return ng, err
	}

	for _, qv := range g.Vertices {
		nv, err := bindVertex(qv)
		if err != nil {
			return nil, err
		}
		out.Vertices = append(out.Vertices, nv)
	}
	for _, qe := range g.Edges {
		ne, err := bindEdge(qe)
		if err != nil {
			return nil, err
		}
		out.Edges = append(out.Edges, ne)
	}
	var err error
	if out.Global, err = bindExprs(g.Global, params); err != nil {
		return nil, err
	}
	for _, og := range g.Optional {
		ng, err := bindGroup(og)
		if err != nil {
			return nil, err
		}
		out.Optional = append(out.Optional, ng)
	}
	for _, eg := range g.Existence {
		ng, err := bindGroup(&eg.OptionalGroup)
		if err != nil {
			return nil, err
		}
		out.Existence = append(out.Existence, &ExistenceGroup{OptionalGroup: *ng, Negated: eg.Negated})
	}

	// The RETURN clause is copied with fresh Items/OrderBy slices so the
	// template's AST-backed arrays stay untouched.
	ret := g.Return
	if len(g.Return.Items) > 0 {
		ret.Items = make([]ReturnItem, len(g.Return.Items))
		for i, item := range g.Return.Items {
			resolved, err := ResolveParams(item.Expr, params)
			if err != nil {
				return nil, err
			}
			ret.Items[i] = ReturnItem{Expr: resolved, Alias: item.Alias}
		}
	}
	if len(g.Return.OrderBy) > 0 {
		ret.OrderBy = make([]SortItem, len(g.Return.OrderBy))
		for i, s := range g.Return.OrderBy {
			resolved, err := ResolveParams(s.Expr, params)
			if err != nil {
				return nil, err
			}
			ret.OrderBy[i] = SortItem{Expr: resolved, Desc: s.Desc}
		}
	}
	out.Return = ret

	b.Graph = out
	return b, nil
}

// bindExprs resolves $parameters in a conjunct list, returning a fresh slice
// (or nil for an empty input).
func bindExprs(exprs []Expr, params map[string]epgm.PropertyValue) ([]Expr, error) {
	if len(exprs) == 0 {
		return nil, nil
	}
	out := make([]Expr, len(exprs))
	for i, e := range exprs {
		resolved, err := ResolveParams(e, params)
		if err != nil {
			return nil, err
		}
		out[i] = resolved
	}
	return out, nil
}

// ResolveParams substitutes $parameters in an expression with literal values,
// erroring on a parameter without a value: the substitution Bind makes in
// every predicate and the planner's Rebind in the expressions operators hold.
func ResolveParams(e Expr, params map[string]epgm.PropertyValue) (Expr, error) {
	return rewriteExpr(e, func(x Expr) (Expr, error) {
		p, ok := x.(*Param)
		if !ok {
			return x, nil
		}
		v, ok := params[p.Name]
		if !ok {
			return nil, &MissingParamError{Name: p.Name}
		}
		return &Literal{Value: v}, nil
	})
}
