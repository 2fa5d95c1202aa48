package cypher

import (
	"fmt"
	"slices"
	"strings"

	"gradoop/internal/epgm"
)

// Query is the AST of a parsed Cypher pattern-matching query: the MATCH
// pattern parts, the optional WHERE expression, any OPTIONAL MATCH clauses,
// and the RETURN clause.
type Query struct {
	Patterns []PatternPart
	Where    Expr // nil when no WHERE clause
	Optional []OptionalMatch
	Return   ReturnClause
}

// OptionalMatch is one `OPTIONAL MATCH ... [WHERE ...]` clause: its pattern
// extends every solution of the preceding clauses, binding its new
// variables to NULL when no extension exists.
type OptionalMatch struct {
	Patterns []PatternPart
	Where    Expr
}

// PatternPart is one comma-separated element of a MATCH clause: a linear
// chain of node patterns connected by relationship patterns.
// len(Rels) == len(Nodes)-1.
type PatternPart struct {
	Nodes []NodePattern
	Rels  []RelPattern
}

// NodePattern is `(v:Label1|Label2 {key: value})`; every component is
// optional.
type NodePattern struct {
	Var    string // "" when anonymous
	Labels []string
	Props  []PropEq
}

// Direction of a relationship pattern relative to its textual order.
type Direction int

// Relationship directions.
const (
	DirOut        Direction = iota // (a)-[e]->(b)
	DirIn                          // (a)<-[e]-(b)
	DirUndirected                  // (a)-[e]-(b)
)

// RelPattern is `-[e:T1|T2*l..u {key: value}]->` (or the mirrored/undirected
// forms). MinHops/MaxHops are 1/1 for a plain relationship; a variable
// length expression `*l..u` sets them explicitly.
type RelPattern struct {
	Var       string
	Types     []string
	Direction Direction
	MinHops   int
	MaxHops   int
	Props     []PropEq
}

// IsVarLength reports whether the pattern is a variable length path
// expression.
func (r RelPattern) IsVarLength() bool { return r.MinHops != 1 || r.MaxHops != 1 }

// PropEq is one `key: value` entry of an inline property map, shorthand for
// an equality predicate.
type PropEq struct {
	Key   string
	Value Expr // Literal or Param
}

// ReturnClause lists the projection. Star means `RETURN *`. Skip and Limit
// are -1 when absent.
type ReturnClause struct {
	Star     bool
	Distinct bool
	Items    []ReturnItem
	OrderBy  []SortItem
	Skip     int64
	Limit    int64
}

// SortItem is one `ORDER BY expr [ASC|DESC]` entry.
type SortItem struct {
	Expr Expr
	Desc bool
}

// ReturnItem is `expr [AS alias]` where expr is a variable or a property
// access.
type ReturnItem struct {
	Expr  Expr
	Alias string // "" when absent
}

// Name returns the output column name of the item.
func (it ReturnItem) Name() string {
	if it.Alias != "" {
		return it.Alias
	}
	return ExprString(it.Expr)
}

// Expr is a WHERE-clause expression node.
type Expr interface{ exprNode() }

// BinaryOp enumerates binary operators.
type BinaryOp string

// Binary operators.
const (
	OpAnd BinaryOp = "AND"
	OpOr  BinaryOp = "OR"
	OpXor BinaryOp = "XOR"
	OpEQ  BinaryOp = "="
	OpNEQ BinaryOp = "<>"
	OpLT  BinaryOp = "<"
	OpLE  BinaryOp = "<="
	OpGT  BinaryOp = ">"
	OpGE  BinaryOp = ">="

	// Arithmetic operators; + concatenates strings as well.
	OpAdd BinaryOp = "+"
	OpSub BinaryOp = "-"
	OpMul BinaryOp = "*"
	OpDiv BinaryOp = "/"
	OpMod BinaryOp = "%"

	// String predicates.
	OpStartsWith BinaryOp = "STARTS WITH"
	OpEndsWith   BinaryOp = "ENDS WITH"
	OpContains   BinaryOp = "CONTAINS"

	// OpIn tests list membership; the right operand is a ListExpr.
	OpIn BinaryOp = "IN"
)

// BinaryExpr applies a binary operator.
type BinaryExpr struct {
	Op   BinaryOp
	L, R Expr
}

// NotExpr negates its operand.
type NotExpr struct{ X Expr }

// PropertyAccess is `variable.key`.
type PropertyAccess struct {
	Var string
	Key string
}

// VarRef is a bare variable reference (only meaningful in RETURN items).
type VarRef struct{ Var string }

// Literal wraps a constant property value.
type Literal struct{ Value epgm.PropertyValue }

// Param is a `$name` query parameter, replaced by a literal during query
// graph construction.
type Param struct{ Name string }

// ListExpr is a literal list `[e1, e2, ...]`, usable as the right operand
// of IN.
type ListExpr struct{ Elems []Expr }

// IsNullExpr is `expr IS NULL` (or IS NOT NULL when Negated).
type IsNullExpr struct {
	X       Expr
	Negated bool
}

// ExistsExpr is an existence pattern predicate: `exists((a)-[:x]->(b))` is
// true when at least one assignment of the pattern extends the current
// bindings. Planned as a semi join (or an anti join under NOT).
type ExistsExpr struct {
	Pattern PatternPart
}

// FuncCall is an aggregate or scalar function call in a RETURN item:
// count(*), count(x), sum(x), min(x), max(x), avg(x).
type FuncCall struct {
	Name string // lower-cased
	Star bool   // count(*)
	Arg  Expr   // nil when Star
}

// Aggregate reports whether the function is an aggregate.
func (f *FuncCall) Aggregate() bool {
	switch f.Name {
	case "count", "sum", "min", "max", "avg", "collect":
		return true
	default:
		return false
	}
}

func (*BinaryExpr) exprNode()     {}
func (*NotExpr) exprNode()        {}
func (*PropertyAccess) exprNode() {}
func (*VarRef) exprNode()         {}
func (*Literal) exprNode()        {}
func (*Param) exprNode()          {}
func (*ListExpr) exprNode()       {}
func (*IsNullExpr) exprNode()     {}
func (*FuncCall) exprNode()       {}
func (*ExistsExpr) exprNode()     {}

// ExprString renders an expression as Cypher text.
func ExprString(e Expr) string {
	switch x := e.(type) {
	case *BinaryExpr:
		return fmt.Sprintf("(%s %s %s)", ExprString(x.L), x.Op, ExprString(x.R))
	case *NotExpr:
		return fmt.Sprintf("(NOT %s)", ExprString(x.X))
	case *PropertyAccess:
		return x.Var + "." + x.Key
	case *VarRef:
		return x.Var
	case *Literal:
		if x.Value.Type() == epgm.TypeString {
			return "'" + x.Value.Str() + "'"
		}
		return x.Value.String()
	case *Param:
		return "$" + x.Name
	case *ListExpr:
		s := "["
		for i, e := range x.Elems {
			if i > 0 {
				s += ", "
			}
			s += ExprString(e)
		}
		return s + "]"
	case *IsNullExpr:
		if x.Negated {
			return fmt.Sprintf("(%s IS NOT NULL)", ExprString(x.X))
		}
		return fmt.Sprintf("(%s IS NULL)", ExprString(x.X))
	case *FuncCall:
		if x.Star {
			return x.Name + "(*)"
		}
		return x.Name + "(" + ExprString(x.Arg) + ")"
	case *ExistsExpr:
		var sb strings.Builder
		sb.WriteString("exists(")
		writePatternPart(&sb, x.Pattern)
		sb.WriteString(")")
		return sb.String()
	default:
		return "?"
	}
}

// walkExpr calls visit on e and then, depth first and left to right, on every
// expression below it. With rewriteExpr it is the one place that names the
// children of each node type; an ExistsExpr is a leaf, its pattern is not an
// expression.
func walkExpr(e Expr, visit func(Expr)) {
	visit(e)
	switch x := e.(type) {
	case *BinaryExpr:
		walkExpr(x.L, visit)
		walkExpr(x.R, visit)
	case *NotExpr:
		walkExpr(x.X, visit)
	case *IsNullExpr:
		walkExpr(x.X, visit)
	case *ListExpr:
		for _, elem := range x.Elems {
			walkExpr(elem, visit)
		}
	case *FuncCall:
		if x.Arg != nil {
			walkExpr(x.Arg, visit)
		}
	}
}

// rewriteExpr returns e with leaf(x) in place of every leaf x below it -
// property access, variable, literal, parameter, exists() and count(*) - and
// every other node rebuilt around its rewritten children. A node none of whose
// children changed is returned as it is: expressions are never modified in
// place, so a rewrite shares what it did not change and allocates nothing for
// it. The first error leaf returns is the rewrite's.
func rewriteExpr(e Expr, leaf func(Expr) (Expr, error)) (Expr, error) {
	switch x := e.(type) {
	case *BinaryExpr:
		l, err := rewriteExpr(x.L, leaf)
		if err != nil {
			return nil, err
		}
		r, err := rewriteExpr(x.R, leaf)
		if err != nil || (l == x.L && r == x.R) {
			return x, err
		}
		return &BinaryExpr{Op: x.Op, L: l, R: r}, nil
	case *NotExpr:
		in, err := rewriteExpr(x.X, leaf)
		if err != nil || in == x.X {
			return x, err
		}
		return &NotExpr{X: in}, nil
	case *IsNullExpr:
		in, err := rewriteExpr(x.X, leaf)
		if err != nil || in == x.X {
			return x, err
		}
		return &IsNullExpr{X: in, Negated: x.Negated}, nil
	case *ListExpr:
		var elems []Expr // nil until an element changes
		for i, elem := range x.Elems {
			out, err := rewriteExpr(elem, leaf)
			if err != nil {
				return nil, err
			}
			if out != elem && elems == nil {
				elems = append(make([]Expr, 0, len(x.Elems)), x.Elems[:i]...)
			}
			if elems != nil {
				elems = append(elems, out)
			}
		}
		if elems == nil {
			return x, nil
		}
		return &ListExpr{Elems: elems}, nil
	case *FuncCall:
		if x.Arg == nil {
			return leaf(x)
		}
		arg, err := rewriteExpr(x.Arg, leaf)
		if err != nil || arg == x.Arg {
			return x, err
		}
		return &FuncCall{Name: x.Name, Star: x.Star, Arg: arg}, nil
	default:
		return leaf(e)
	}
}

// RenameVars returns the expression with variable references renamed per the
// map; unmapped variables stay. It is used to normalize predicates when
// detecting recurring sub-patterns and to re-target shared sub-plans.
func RenameVars(e Expr, rename map[string]string) Expr {
	out, _ := rewriteExpr(e, func(x Expr) (Expr, error) {
		switch x := x.(type) {
		case *PropertyAccess:
			if n, ok := rename[x.Var]; ok {
				return &PropertyAccess{Var: n, Key: x.Key}, nil
			}
		case *VarRef:
			if n, ok := rename[x.Var]; ok {
				return &VarRef{Var: n}, nil
			}
		}
		return x, nil
	})
	return out
}

// ExprVars returns the distinct variables referenced by an expression, in
// first-occurrence order.
func ExprVars(e Expr) []string {
	var out []string
	walkExpr(e, func(x Expr) {
		var v string
		switch x := x.(type) {
		case *PropertyAccess:
			v = x.Var
		case *VarRef:
			v = x.Var
		default:
			return
		}
		if !slices.Contains(out, v) {
			out = append(out, v)
		}
	})
	return out
}

// writePatternPart renders one pattern part as Cypher text.
func writePatternPart(sb *strings.Builder, p PatternPart) {
	for j, n := range p.Nodes {
		if j > 0 {
			r := p.Rels[j-1]
			switch r.Direction {
			case DirIn:
				sb.WriteString("<-[")
			default:
				sb.WriteString("-[")
			}
			sb.WriteString(r.Var)
			for k, t := range r.Types {
				if k == 0 {
					sb.WriteByte(':')
				} else {
					sb.WriteByte('|')
				}
				sb.WriteString(t)
			}
			if r.IsVarLength() {
				fmt.Fprintf(sb, "*%d..%d", r.MinHops, r.MaxHops)
			}
			switch r.Direction {
			case DirOut:
				sb.WriteString("]->")
			default:
				sb.WriteString("]-")
			}
		}
		sb.WriteByte('(')
		sb.WriteString(n.Var)
		for k, l := range n.Labels {
			if k == 0 {
				sb.WriteByte(':')
			} else {
				sb.WriteByte('|')
			}
			sb.WriteString(l)
		}
		sb.WriteByte(')')
	}
}

// String renders the query part names for debugging.
func (q *Query) String() string {
	var sb strings.Builder
	sb.WriteString("MATCH ")
	for i, p := range q.Patterns {
		if i > 0 {
			sb.WriteString(", ")
		}
		writePatternPart(&sb, p)
	}
	if q.Where != nil {
		sb.WriteString(" WHERE ")
		sb.WriteString(ExprString(q.Where))
	}
	return sb.String()
}
