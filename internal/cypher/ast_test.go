package cypher

import (
	"errors"
	"slices"
	"testing"

	"gradoop/internal/epgm"
)

// TestExprWalkAndRewrite holds the one walk and the one rewrite to every
// expression node type: what the walk visits and what the analyses built on
// it (variables, property accesses, aggregates, exists()) find, and what the
// two rewrites built on the other (parameter substitution, variable renaming)
// make of it. A rewrite that changes nothing returns its input, and a missing
// parameter anywhere below is a *MissingParamError.
func TestExprWalkAndRewrite(t *testing.T) {
	pa := &PropertyAccess{Var: "n", Key: "x"}
	par := &Param{Name: "p"}
	eq := &BinaryExpr{Op: OpEQ, L: pa, R: par}
	exists := &ExistsExpr{Pattern: PatternPart{
		Nodes: []NodePattern{{Var: "n"}, {Var: "k"}},
		Rels:  []RelPattern{{Direction: DirOut, MinHops: 1, MaxHops: 1}},
	}}
	for _, tc := range []struct {
		name              string
		e                 Expr
		nodes             int // what the walk visits
		vars, props       []string
		aggregate, exists bool
		resolved, renamed string
	}{
		{"BinaryExpr", eq, 3, []string{"n"}, []string{"n.x"}, false, false, "(n.x = 1)", "(m.x = $p)"},
		{"NotExpr", &NotExpr{X: eq}, 4, []string{"n"}, []string{"n.x"}, false, false, "(NOT (n.x = 1))", "(NOT (m.x = $p))"},
		{"PropertyAccess", pa, 1, []string{"n"}, []string{"n.x"}, false, false, "n.x", "m.x"},
		{"VarRef", &VarRef{Var: "n"}, 1, []string{"n"}, nil, false, false, "n", "m"},
		{"Literal", &Literal{Value: epgm.PVInt(2)}, 1, nil, nil, false, false, "2", "2"},
		{"Param", par, 1, nil, nil, false, false, "1", "$p"},
		{"ListExpr", &ListExpr{Elems: []Expr{&Literal{Value: epgm.PVInt(2)}, par, &VarRef{Var: "k"}, pa}}, 5,
			[]string{"k", "n"}, []string{"n.x"}, false, false, "[2, 1, k, n.x]", "[2, $p, k, m.x]"},
		{"IsNullExpr", &IsNullExpr{X: pa, Negated: true}, 2, []string{"n"}, []string{"n.x"}, false, false, "(n.x IS NOT NULL)", "(m.x IS NOT NULL)"},
		{"FuncCall", &FuncCall{Name: "sum", Arg: &BinaryExpr{Op: OpAdd, L: pa, R: par}}, 4,
			[]string{"n"}, []string{"n.x"}, true, false, "sum((n.x + 1))", "sum((m.x + $p))"},
		{"FuncCall/star", &FuncCall{Name: "count", Star: true}, 1, nil, nil, true, false, "count(*)", "count(*)"},
		{"ExistsExpr", exists, 1, nil, nil, false, true, "exists((n)-[]->(k))", "exists((n)-[]->(k))"},
		{"ExistsExpr/under NOT", &NotExpr{X: exists}, 2, nil, nil, false, true, "(NOT exists((n)-[]->(k)))", "(NOT exists((n)-[]->(k)))"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nodes := 0
			walkExpr(tc.e, func(Expr) { nodes++ })
			var props []string
			CollectPropAccesses(tc.e, func(v, k string) { props = append(props, v+"."+k) })
			if nodes != tc.nodes || !slices.Equal(ExprVars(tc.e), tc.vars) || !slices.Equal(props, tc.props) ||
				containsAggregate(tc.e) != tc.aggregate || containsExists(tc.e) != tc.exists {
				t.Fatalf("walk: %d nodes, vars %v, props %v, aggregate %v, exists %v", nodes, ExprVars(tc.e), props,
					containsAggregate(tc.e), containsExists(tc.e))
			}
			resolved, err := ResolveParams(tc.e, map[string]epgm.PropertyValue{"p": epgm.PVInt(1)})
			if err != nil || ExprString(resolved) != tc.resolved {
				t.Fatalf("resolved to %s (%v), want %s", ExprString(resolved), err, tc.resolved)
			}
			if got := ExprString(RenameVars(tc.e, map[string]string{"n": "m"})); got != tc.renamed {
				t.Fatalf("renamed to %s, want %s", got, tc.renamed)
			}
			if RenameVars(tc.e, map[string]string{"unbound": "m"}) != tc.e {
				t.Fatal("a rename that changes nothing rebuilt the expression")
			}
			var missing *MissingParamError
			unbound, err := ResolveParams(tc.e, nil)
			if tc.resolved == ExprString(tc.e) { // no parameter below
				if err != nil || unbound != tc.e {
					t.Fatalf("a substitution that changes nothing: %v, or it rebuilt the expression", err)
				}
			} else if !errors.As(err, &missing) || missing.Name != "p" {
				t.Fatalf("unbound $p: %v, want a *MissingParamError", err)
			}
		})
	}
}
