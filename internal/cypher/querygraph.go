package cypher

import (
	"fmt"
	"sort"

	"gradoop/internal/epgm"
)

// QueryGraph is the simplified form of a parsed query (Definition 2.2): a
// graph of query vertices and query edges, each carrying its element-centric
// predicate conjuncts, plus the residual predicates that span multiple
// query elements and must be evaluated on embeddings.
type QueryGraph struct {
	Vertices []*QueryVertex
	Edges    []*QueryEdge
	// Global holds WHERE conjuncts referencing more than one variable,
	// evaluated by a FilterEmbeddings operator once all referenced
	// variables are bound.
	Global []Expr
	// Optional lists the OPTIONAL MATCH groups in clause order; each is
	// evaluated via a left outer join against the preceding solutions.
	Optional []*OptionalGroup
	// Existence lists exists()/NOT exists() WHERE conjuncts, planned as
	// semi respectively anti joins against the mandatory solutions.
	Existence []*ExistenceGroup
	// Return is the original RETURN clause.
	Return ReturnClause

	vertexByVar map[string]*QueryVertex
	edgeByVar   map[string]*QueryEdge
}

// OptionalGroup is one OPTIONAL MATCH clause: the query vertices it
// introduces, its edges (which may connect to variables bound earlier), and
// the residual predicates evaluated on candidate extensions inside the
// outer join.
type OptionalGroup struct {
	Vertices   []*QueryVertex
	Edges      []*QueryEdge
	Predicates []Expr
}

// ExistenceGroup is one exists() pattern predicate. Its variables are
// scoped to the predicate: they are matched to decide existence but do not
// appear in the result.
type ExistenceGroup struct {
	OptionalGroup
	Negated bool
}

// QueryVertex is one vertex of the query graph with its predicate function
// θv decomposed into a label alternation and property conjuncts.
type QueryVertex struct {
	Var        string
	Anonymous  bool
	Labels     []string // empty = any label; otherwise an alternation
	Predicates []Expr   // conjuncts referencing only this variable
	// Projection lists the property keys of this vertex that a predicate
	// reads after the leaf operator: a cross-element WHERE conjunct or an
	// OPTIONAL MATCH group's. Every row that binds the vertex carries them.
	Projection []string
	// Returned lists the keys that only the result reads - RETURN, ORDER BY,
	// an aggregate's argument - and no predicate after the leaf. Rows carry
	// them too, unless every run of the plan reads a store that finds a
	// vertex by its id: then the result reads them there (planner.Plan).
	Returned []string
}

// Keys returns every key of the vertex read after the leaf, Projection and
// Returned merged, sorted: what a row carries when it carries them all.
func (qv *QueryVertex) Keys() []string {
	if len(qv.Returned) == 0 {
		return qv.Projection
	}
	keys := append(append(make([]string, 0, len(qv.Projection)+len(qv.Returned)), qv.Projection...), qv.Returned...)
	sort.Strings(keys)
	return keys
}

// QueryEdge is one edge of the query graph, directed from Source to Target
// query vertices (direction already normalized), possibly a variable length
// path expression.
type QueryEdge struct {
	Var        string
	Anonymous  bool
	Types      []string // empty = any type; otherwise an alternation
	Source     string   // query vertex variable
	Target     string   // query vertex variable
	Undirected bool
	MinHops    int
	MaxHops    int
	Predicates []Expr
	// Projection lists every property key of this edge read after the leaf,
	// by a predicate or by the result: an edge's properties are always
	// carried, as no store finds an edge by its id.
	Projection []string
}

// IsVarLength reports whether the edge is a variable length path.
func (e *QueryEdge) IsVarLength() bool { return e.MinHops != 1 || e.MaxHops != 1 }

// VertexByVar returns the query vertex bound to a variable.
func (g *QueryGraph) VertexByVar(v string) (*QueryVertex, bool) {
	qv, ok := g.vertexByVar[v]
	return qv, ok
}

// EdgeByVar returns the query edge bound to a variable.
func (g *QueryGraph) EdgeByVar(v string) (*QueryEdge, bool) {
	qe, ok := g.edgeByVar[v]
	return qe, ok
}

// AssembleQueryGraph builds a query graph directly from its components,
// reconstructing the variable lookup tables. It serves callers (tests,
// baselines) that programmatically derive a variant of an existing query
// graph.
func AssembleQueryGraph(vertices []*QueryVertex, edges []*QueryEdge, global []Expr, ret ReturnClause) *QueryGraph {
	g := &QueryGraph{
		Vertices:    vertices,
		Edges:       edges,
		Global:      global,
		Return:      ret,
		vertexByVar: map[string]*QueryVertex{},
		edgeByVar:   map[string]*QueryEdge{},
	}
	for _, qv := range vertices {
		g.vertexByVar[qv.Var] = qv
	}
	for _, qe := range edges {
		g.edgeByVar[qe.Var] = qe
	}
	return g
}

// BuildQueryGraph simplifies a parsed query into a query graph with its
// $parameters bound from params: BuildQueryGraphDeferred, then Bind.
func BuildQueryGraph(q *Query, params map[string]epgm.PropertyValue) (*QueryGraph, error) {
	tpl, err := BuildQueryGraphDeferred(q)
	if err != nil {
		return nil, err
	}
	b, err := tpl.Bind(params)
	if err != nil {
		return nil, err
	}
	return b.Graph, nil
}

// BuildQueryGraphDeferred simplifies a parsed query into a query graph
// template: $parameters are kept as Param expressions, so one template serves
// every binding of the same query, and Bind substitutes concrete values (and
// reports missing parameters). It validates that WHERE, RETURN and ORDER BY
// reference only declared variables. The input query AST is not mutated, so
// it may be cached alongside the result.
func BuildQueryGraphDeferred(q *Query) (*QueryGraph, error) {
	g := &QueryGraph{
		Return:      q.Return,
		vertexByVar: map[string]*QueryVertex{},
		edgeByVar:   map[string]*QueryEdge{},
	}
	anonV, anonE := 0, 0

	// getVertex resolves a node pattern to its query vertex. group is nil
	// for the mandatory MATCH part; inside an OPTIONAL MATCH, new vertices
	// are recorded on the group and re-bound variables must not gain new
	// constraints (that would retroactively change the mandatory part).
	getVertex := func(n NodePattern, group *OptionalGroup) (*QueryVertex, error) {
		name := n.Var
		anonymous := false
		if name == "" {
			name = fmt.Sprintf("__v%d", anonV)
			anonV++
			anonymous = true
		}
		if _, clash := g.edgeByVar[name]; clash {
			return nil, fmt.Errorf("cypher: variable %q used for both a vertex and an edge", name)
		}
		qv, ok := g.vertexByVar[name]
		if !ok {
			qv = &QueryVertex{Var: name, Anonymous: anonymous, Labels: n.Labels}
			g.vertexByVar[name] = qv
			if group != nil {
				group.Vertices = append(group.Vertices, qv)
			} else {
				g.Vertices = append(g.Vertices, qv)
			}
		} else {
			if group != nil && (len(n.Labels) > 0 || len(n.Props) > 0) {
				return nil, fmt.Errorf("cypher: OPTIONAL MATCH must not add constraints to already-bound variable %q", name)
			}
			if len(n.Labels) > 0 {
				if len(qv.Labels) == 0 {
					qv.Labels = n.Labels
				} else {
					qv.Labels = intersectStrings(qv.Labels, n.Labels)
					if len(qv.Labels) == 0 {
						return nil, fmt.Errorf("cypher: variable %q has contradictory label constraints", name)
					}
				}
			}
		}
		for _, pe := range n.Props {
			pred, err := propPredicate(name, pe)
			if err != nil {
				return nil, err
			}
			qv.Predicates = append(qv.Predicates, pred)
		}
		return qv, nil
	}

	processPatterns := func(patterns []PatternPart, group *OptionalGroup) error {
		for _, part := range patterns {
			var prev *QueryVertex
			for i, n := range part.Nodes {
				qv, err := getVertex(n, group)
				if err != nil {
					return err
				}
				if i > 0 {
					rel := part.Rels[i-1]
					name := rel.Var
					anonymous := false
					if name == "" {
						name = fmt.Sprintf("__e%d", anonE)
						anonE++
						anonymous = true
					}
					if _, clash := g.vertexByVar[name]; clash {
						return fmt.Errorf("cypher: variable %q used for both a vertex and an edge", name)
					}
					if _, dup := g.edgeByVar[name]; dup {
						return fmt.Errorf("cypher: relationship variable %q bound more than once", name)
					}
					qe := &QueryEdge{
						Var:       name,
						Anonymous: anonymous,
						Types:     rel.Types,
						MinHops:   rel.MinHops,
						MaxHops:   rel.MaxHops,
					}
					if group != nil && qe.IsVarLength() {
						return fmt.Errorf("cypher: variable length paths are not supported in OPTIONAL MATCH or exists()")
					}
					switch rel.Direction {
					case DirOut:
						qe.Source, qe.Target = prev.Var, qv.Var
					case DirIn:
						qe.Source, qe.Target = qv.Var, prev.Var
					default:
						qe.Source, qe.Target = prev.Var, qv.Var
						qe.Undirected = true
					}
					for _, pe := range rel.Props {
						pred, err := propPredicate(name, pe)
						if err != nil {
							return err
						}
						qe.Predicates = append(qe.Predicates, pred)
					}
					g.edgeByVar[name] = qe
					if group != nil {
						group.Edges = append(group.Edges, qe)
					} else {
						g.Edges = append(g.Edges, qe)
					}
				}
				prev = qv
			}
		}
		return nil
	}

	if err := processPatterns(q.Patterns, nil); err != nil {
		return nil, err
	}

	// Distribute WHERE conjuncts.
	if q.Where != nil {
		if containsAggregate(q.Where) {
			return nil, fmt.Errorf("cypher: aggregate functions are not allowed in WHERE")
		}
		for _, conj := range splitConjuncts(q.Where) {
			// exists() predicates become semi/anti-join groups; they are
			// only supported as top-level conjuncts (possibly negated).
			if ex, negated, ok := asExistsConjunct(conj); ok {
				group := &ExistenceGroup{Negated: negated}
				if err := processPatterns([]PatternPart{ex.Pattern}, &group.OptionalGroup); err != nil {
					return nil, err
				}
				if len(group.Edges) == 0 {
					return nil, fmt.Errorf("cypher: exists() requires a pattern with at least one relationship")
				}
				g.Existence = append(g.Existence, group)
				continue
			}
			if containsExists(conj) {
				return nil, fmt.Errorf("cypher: exists() must appear as a top-level conjunct (optionally under NOT)")
			}
			vars := ExprVars(conj)
			if err := g.validateVars(vars, "WHERE"); err != nil {
				return nil, err
			}
			if len(vars) == 1 {
				v := vars[0]
				if qv, ok := g.vertexByVar[v]; ok {
					qv.Predicates = append(qv.Predicates, conj)
					continue
				}
				if qe, ok := g.edgeByVar[v]; ok && !qe.IsVarLength() {
					qe.Predicates = append(qe.Predicates, conj)
					continue
				}
				// Predicates on variable-length paths are evaluated per hop
				// inside ExpandEmbeddings; keep them on the edge as well.
				if qe, ok := g.edgeByVar[v]; ok {
					qe.Predicates = append(qe.Predicates, conj)
					continue
				}
			}
			g.Global = append(g.Global, conj)
		}
	}

	// OPTIONAL MATCH groups, in clause order.
	for _, om := range q.Optional {
		group := &OptionalGroup{}
		if err := processPatterns(om.Patterns, group); err != nil {
			return nil, err
		}
		if len(group.Edges) == 0 && len(group.Vertices) == 0 {
			return nil, fmt.Errorf("cypher: OPTIONAL MATCH introduces no new pattern elements")
		}
		newVars := map[string]bool{}
		for _, qv := range group.Vertices {
			newVars[qv.Var] = true
		}
		for _, qe := range group.Edges {
			newVars[qe.Var] = true
		}
		if om.Where != nil {
			if containsAggregate(om.Where) {
				return nil, fmt.Errorf("cypher: aggregate functions are not allowed in WHERE")
			}
			for _, conj := range splitConjuncts(om.Where) {
				if containsExists(conj) {
					return nil, fmt.Errorf("cypher: exists() is not supported in OPTIONAL MATCH WHERE")
				}
				vars := ExprVars(conj)
				if err := g.validateVars(vars, "OPTIONAL MATCH WHERE"); err != nil {
					return nil, err
				}
				// Single-variable conjuncts on a variable this group
				// introduced push into its leaf; everything else is checked
				// on candidate extensions inside the outer join.
				if len(vars) == 1 && newVars[vars[0]] {
					v := vars[0]
					if qv, ok := g.vertexByVar[v]; ok {
						qv.Predicates = append(qv.Predicates, conj)
						continue
					}
					if qe, ok := g.edgeByVar[v]; ok {
						qe.Predicates = append(qe.Predicates, conj)
						continue
					}
				}
				group.Predicates = append(group.Predicates, conj)
			}
		}
		g.Optional = append(g.Optional, group)
	}

	// Validate RETURN and collect per-variable property projections: what
	// predicates after the leaves read, and what only the result reads of a
	// vertex. Every predicate is collected before the result.
	need, result := map[string]map[string]struct{}{}, map[string]map[string]struct{}{}
	add := func(m map[string]map[string]struct{}, variable, key string) {
		if m[variable] == nil {
			m[variable] = map[string]struct{}{}
		}
		m[variable][key] = struct{}{}
	}
	addNeed := func(variable, key string) { add(need, variable, key) }
	addResult := func(variable, key string) {
		if _, edge := g.edgeByVar[variable]; edge {
			add(need, variable, key) // an edge's properties are always carried
		} else if _, needed := need[variable][key]; !needed {
			add(result, variable, key)
		}
	}
	for _, conj := range g.Global {
		CollectPropAccesses(conj, addNeed)
	}
	for _, group := range g.Optional {
		for _, conj := range group.Predicates {
			CollectPropAccesses(conj, addNeed)
		}
	}
	if !g.Return.Star {
		for _, item := range g.Return.Items {
			if err := g.validateVars(ExprVars(item.Expr), "RETURN"); err != nil {
				return nil, err
			}
			CollectPropAccesses(item.Expr, addResult)
		}
	}
	aliases := map[string]bool{}
	for _, item := range g.Return.Items {
		if item.Alias != "" {
			aliases[item.Alias] = true
		}
	}
	for _, sortItem := range g.Return.OrderBy {
		// A bare variable in ORDER BY may name a RETURN alias instead of a
		// query variable.
		var vars []string
		for _, v := range ExprVars(sortItem.Expr) {
			if ref, ok := sortItem.Expr.(*VarRef); ok && ref.Var == v && aliases[v] {
				continue
			}
			vars = append(vars, v)
		}
		if err := g.validateVars(vars, "ORDER BY"); err != nil {
			return nil, err
		}
		CollectPropAccesses(sortItem.Expr, addResult)
	}
	for v, keys := range need {
		if qv, ok := g.vertexByVar[v]; ok {
			qv.Projection = sortedKeys(keys)
		} else if qe, ok := g.edgeByVar[v]; ok {
			qe.Projection = sortedKeys(keys)
		}
	}
	for v, keys := range result {
		if qv, ok := g.vertexByVar[v]; ok {
			qv.Returned = sortedKeys(keys)
		}
	}
	return g, nil
}

// sortedKeys returns the keys of set, sorted.
func sortedKeys(set map[string]struct{}) []string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (g *QueryGraph) validateVars(vars []string, clause string) error {
	for _, v := range vars {
		if _, ok := g.vertexByVar[v]; ok {
			continue
		}
		if _, ok := g.edgeByVar[v]; ok {
			continue
		}
		return fmt.Errorf("cypher: %s references undeclared variable %q", clause, v)
	}
	return nil
}

// splitConjuncts flattens top-level ANDs into a conjunct list (the
// CNF-style decomposition used for predicate pushdown).
func splitConjuncts(e Expr) []Expr {
	if b, ok := e.(*BinaryExpr); ok && b.Op == OpAnd {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []Expr{e}
}

// MissingParamError reports a $parameter the request bound no value to. A
// template plan meets it when it is bound, at execution time; callers tell it
// from an execution failure with errors.As.
type MissingParamError struct{ Name string }

func (e *MissingParamError) Error() string {
	return "cypher: missing value for parameter $" + e.Name
}

// propPredicate is the equality an inline `{key: value}` entry of variable
// name stands for; its value must be a literal or a $parameter.
func propPredicate(name string, pe PropEq) (Expr, error) {
	switch pe.Value.(type) {
	case *Literal, *Param:
		return &BinaryExpr{Op: OpEQ, L: &PropertyAccess{Var: name, Key: pe.Key}, R: pe.Value}, nil
	}
	return nil, fmt.Errorf("cypher: expected literal or parameter, got %s", ExprString(pe.Value))
}

// asExistsConjunct matches `exists(...)` and `NOT exists(...)` conjuncts.
func asExistsConjunct(e Expr) (*ExistsExpr, bool, bool) {
	if ex, ok := e.(*ExistsExpr); ok {
		return ex, false, true
	}
	if not, ok := e.(*NotExpr); ok {
		if ex, ok := not.X.(*ExistsExpr); ok {
			return ex, true, true
		}
	}
	return nil, false, false
}

// containsExists reports whether an expression tree contains an exists()
// predicate anywhere.
func containsExists(e Expr) bool {
	found := false
	walkExpr(e, func(x Expr) {
		if _, ok := x.(*ExistsExpr); ok {
			found = true
		}
	})
	return found
}

// containsAggregate reports whether the expression tree contains an
// aggregate function call.
func containsAggregate(e Expr) bool {
	found := false
	walkExpr(e, func(x Expr) {
		if f, ok := x.(*FuncCall); ok && f.Aggregate() {
			found = true
		}
	})
	return found
}

// CollectPropAccesses invokes add for every property access in the
// expression tree. Callers use it to determine which property columns a
// predicate needs.
func CollectPropAccesses(e Expr, add func(variable, key string)) {
	walkExpr(e, func(x Expr) {
		if pa, ok := x.(*PropertyAccess); ok {
			add(pa.Var, pa.Key)
		}
	})
}

func intersectStrings(a, b []string) []string {
	set := map[string]struct{}{}
	for _, s := range b {
		set[s] = struct{}{}
	}
	var out []string
	for _, s := range a {
		if _, ok := set[s]; ok {
			out = append(out, s)
		}
	}
	return out
}
