package cypher

import (
	"testing"

	"gradoop/internal/epgm"
)

func TestParseReturnModifiers(t *testing.T) {
	q := mustParse(t, `MATCH (m:Movie) RETURN DISTINCT m.title AS title, count(*) AS n
		ORDER BY n DESC, title ASC SKIP 5 LIMIT 10`)
	ret := q.Return
	if !ret.Distinct {
		t.Fatal("distinct")
	}
	if len(ret.Items) != 2 {
		t.Fatalf("items=%d", len(ret.Items))
	}
	fc, ok := ret.Items[1].Expr.(*FuncCall)
	if !ok || fc.Name != "count" || !fc.Star || !fc.Aggregate() {
		t.Fatalf("count(*): %+v", ret.Items[1].Expr)
	}
	if len(ret.OrderBy) != 2 || !ret.OrderBy[0].Desc || ret.OrderBy[1].Desc {
		t.Fatalf("orderBy: %+v", ret.OrderBy)
	}
	if ret.Skip != 5 || ret.Limit != 10 {
		t.Fatalf("skip/limit: %d/%d", ret.Skip, ret.Limit)
	}
}

func TestParseReturnDefaultsNoModifiers(t *testing.T) {
	q := mustParse(t, `MATCH (m) RETURN m`)
	if q.Return.Skip != -1 || q.Return.Limit != -1 || q.Return.Distinct {
		t.Fatalf("defaults: %+v", q.Return)
	}
	q2 := mustParse(t, `MATCH (m)`)
	if q2.Return.Skip != -1 || q2.Return.Limit != -1 {
		t.Fatalf("implicit star defaults: %+v", q2.Return)
	}
}

func TestParseAggregateFunctions(t *testing.T) {
	q := mustParse(t, `MATCH (m) RETURN count(m), sum(m.x), min(m.x), max(m.x), avg(m.x)`)
	names := []string{"count", "sum", "min", "max", "avg"}
	for i, item := range q.Return.Items {
		fc := item.Expr.(*FuncCall)
		if fc.Name != names[i] || fc.Star {
			t.Fatalf("item %d: %+v", i, fc)
		}
	}
	if _, err := Parse(`MATCH (m) RETURN frobnicate(m)`); err == nil {
		t.Fatal("unknown function should error")
	}
	if _, err := Parse(`MATCH (m) RETURN sum(*)`); err == nil {
		t.Fatal("sum(*) should error")
	}
}

func TestParseStringPredicatesAndIn(t *testing.T) {
	q := mustParse(t, `MATCH (m) WHERE m.t STARTS WITH 'A' AND m.t ENDS WITH 'z'
		AND m.t CONTAINS 'x' AND m.y IN [1, 2, 3] RETURN *`)
	conj := splitConjuncts(q.Where)
	ops := []BinaryOp{OpStartsWith, OpEndsWith, OpContains, OpIn}
	for i, c := range conj {
		if c.(*BinaryExpr).Op != ops[i] {
			t.Fatalf("conjunct %d: %v", i, ExprString(c))
		}
	}
	list := conj[3].(*BinaryExpr).R.(*ListExpr)
	if len(list.Elems) != 3 {
		t.Fatalf("list: %v", ExprString(list))
	}
	if _, err := Parse(`MATCH (m) WHERE m.y IN 5 RETURN *`); err == nil {
		t.Fatal("IN non-list should error")
	}
}

func TestParseIsNull(t *testing.T) {
	q := mustParse(t, `MATCH (m) WHERE m.a IS NULL AND m.b IS NOT NULL RETURN *`)
	conj := splitConjuncts(q.Where)
	a := conj[0].(*IsNullExpr)
	b := conj[1].(*IsNullExpr)
	if a.Negated || !b.Negated {
		t.Fatalf("is null flags: %v %v", a.Negated, b.Negated)
	}
}

func TestParseArithmeticPrecedence(t *testing.T) {
	q := mustParse(t, `MATCH (m) WHERE m.a + m.b * 2 = 10 RETURN *`)
	cmp := q.Where.(*BinaryExpr)
	add := cmp.L.(*BinaryExpr)
	if add.Op != OpAdd {
		t.Fatalf("top of lhs: %v", ExprString(cmp.L))
	}
	mul := add.R.(*BinaryExpr)
	if mul.Op != OpMul {
		t.Fatalf("right of +: %v", ExprString(add.R))
	}
}

func TestParseUnaryMinusFoldsLiterals(t *testing.T) {
	q := mustParse(t, `MATCH (m) WHERE m.a = -5 AND m.b = -2.5 RETURN *`)
	conj := splitConjuncts(q.Where)
	if lit := conj[0].(*BinaryExpr).R.(*Literal); lit.Value.Int() != -5 {
		t.Fatalf("int fold: %v", lit.Value)
	}
	if lit := conj[1].(*BinaryExpr).R.(*Literal); lit.Value.Float() != -2.5 {
		t.Fatalf("float fold: %v", lit.Value)
	}
}

func TestEvalArithmetic(t *testing.T) {
	lookup := func(v, k string) epgm.PropertyValue { return epgm.Null }
	eval := func(src string) epgm.PropertyValue {
		q := mustParse(t, `MATCH (n) RETURN `+src+` AS x`)
		return EvalValue(q.Return.Items[0].Expr, lookup)
	}
	if got := eval(`2 + 3 * 4`); got.Int() != 14 {
		t.Fatalf("2+3*4=%v", got)
	}
	if got := eval(`7 / 2`); got.Int() != 3 {
		t.Fatalf("7/2=%v", got)
	}
	if got := eval(`7.0 / 2`); got.Float() != 3.5 {
		t.Fatalf("7.0/2=%v", got)
	}
	if got := eval(`7 % 4`); got.Int() != 3 {
		t.Fatalf("7%%4=%v", got)
	}
	if got := eval(`1 / 0`); !got.IsNull() {
		t.Fatalf("1/0=%v", got)
	}
	if got := eval(`'a' + 'b'`); got.Str() != "ab" {
		t.Fatalf("concat=%v", got)
	}
	if got := eval(`'a' + 1`); !got.IsNull() {
		t.Fatalf("mixed=%v", got)
	}
}

func TestQueryGraphOrderByValidation(t *testing.T) {
	q := mustParse(t, `MATCH (m) RETURN m.x AS v ORDER BY v`)
	if _, err := BuildQueryGraph(q, nil); err != nil {
		t.Fatalf("alias in ORDER BY: %v", err)
	}
	q2 := mustParse(t, `MATCH (m) RETURN m.x ORDER BY nope.y`)
	if _, err := BuildQueryGraph(q2, nil); err == nil {
		t.Fatal("undeclared ORDER BY var should error")
	}
	// ORDER BY properties register projections.
	q3 := mustParse(t, `MATCH (m) RETURN m ORDER BY m.year`)
	g, err := BuildQueryGraph(q3, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := g.VertexByVar("m")
	if len(m.Projection) != 0 || len(m.Returned) != 1 || m.Returned[0] != "year" {
		t.Fatalf("projection: %v, returned: %v", m.Projection, m.Returned)
	}
}

func TestEvalStringPredicatesAndIn(t *testing.T) {
	props := epgm.Properties{}.Set("s", epgm.PVString("hello")).Set("n", epgm.PVInt(2))
	lookup := func(v, k string) epgm.PropertyValue { return props.Get(k) }
	check := func(src string, want bool) {
		t.Helper()
		q := mustParse(t, `MATCH (x) WHERE `+src+` RETURN *`)
		if got := EvalPredicate(q.Where, lookup); got != want {
			t.Fatalf("%s = %v, want %v", src, got, want)
		}
	}
	check(`x.s STARTS WITH 'he'`, true)
	check(`x.s STARTS WITH 'lo'`, false)
	check(`x.s ENDS WITH 'lo'`, true)
	check(`x.s CONTAINS 'ell'`, true)
	check(`x.n IN [1, 2, 3]`, true)
	check(`x.n IN [4, 5]`, false)
	check(`x.missing IN [1]`, false)
	check(`x.missing IS NULL`, true)
	check(`x.s IS NOT NULL`, true)
	check(`x.n + 1 = 3`, true)
	check(`x.n * x.n = 4`, true)
}
