package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"gradoop/internal/cypher"
	"gradoop/internal/embedding"
	"gradoop/internal/epgm"
)

// This file implements the tabular RETURN pipeline: item evaluation over
// embeddings, grouping aggregation (count/sum/min/max/avg), DISTINCT,
// ORDER BY, SKIP and LIMIT. Neo4j evaluates the same clauses; the paper's
// operator itself returns graph collections, so these modifiers apply only
// to the table view.
//
// The clause is compiled once per walk into one cell per output column, and
// the walk feeds the table to a sink row by row: Rows collects property
// values (the library API), WriteRowsJSON writes the HTTP body's rows array
// (rowsjson.go). RETURN is a projection of the bag of records, so a
// plain RETURN, with or without SKIP and LIMIT, goes to the sink straight
// from the embeddings; aggregation, DISTINCT and ORDER BY are operations on
// the whole table and materialise it first.

// cellKind says where in an embedding a compiled expression's value sits.
type cellKind uint8

const (
	cellNull cellKind = iota // a variable or property the embeddings do not carry
	cellID                   // a vertex or edge variable: the bound element id
	cellPath                 // a path variable: its id list, rendered "[1 2 3]"
	cellProp                 // variable.key held in propData
	cellExpr                 // anything else: evaluated per embedding
)

// cell is one RETURN or ORDER BY expression compiled against the result's
// metadata. value and appendJSON are its two renderings.
type cell struct {
	kind cellKind
	col  int             // id column (cellID, cellPath) or property column (cellProp)
	expr cypher.Expr     // cellExpr
	meta *embedding.Meta // cellExpr: resolves the properties expr reads
}

func (r *Result) compileCell(e cypher.Expr) cell {
	switch x := e.(type) {
	case *cypher.VarRef:
		c, ok := r.Meta.Column(x.Var)
		switch {
		case !ok:
			return cell{kind: cellNull}
		case r.Meta.Kind(c) == embedding.PathEntry:
			return cell{kind: cellPath, col: c}
		default:
			return cell{kind: cellID, col: c}
		}
	case *cypher.PropertyAccess:
		if pc, ok := r.Meta.PropColumn(x.Var, x.Key); ok {
			return cell{kind: cellProp, col: pc}
		}
		return cell{kind: cellNull}
	}
	return cell{kind: cellExpr, expr: e, meta: r.Meta}
}

// located is an embedding whose property values are found once.
// Embedding.PropBytes(i) steps over the i values in front of the one it
// returns, so rendering a row of k property cells through it walks k*k/2
// values; the first property read of a row asks for all the offsets instead,
// into a buffer the walk reuses, and a row of ids and paths never asks.
type located struct {
	embedding.Embedding
	offs  []uint32 // Embedding.AppendPropOffsets; empty until a property is read
	props []byte   // the propData they index
}

func (r *located) set(emb embedding.Embedding) {
	r.Embedding, r.offs, r.props = emb, r.offs[:0], nil
}

// propBytes is Embedding.PropBytes.
func (r *located) propBytes(i int) []byte {
	if len(r.offs) == 0 {
		r.offs, r.props = r.AppendPropOffsets(r.offs)
	}
	return r.props[r.offs[i]:r.offs[i+1]]
}

// prop is Embedding.Prop.
func (r *located) prop(i int) epgm.PropertyValue {
	v, _, err := epgm.DecodePropertyValue(r.propBytes(i))
	if err != nil {
		panic(fmt.Sprintf("core: property column %d: %v", i, err))
	}
	return v
}

// value evaluates the cell against one embedding. Bare variables yield the
// bound element id (paths render as id lists), unbound ones Null.
func (c cell) value(emb *located) epgm.PropertyValue {
	switch c.kind {
	case cellID:
		if emb.IsNullAt(c.col) {
			return epgm.Null
		}
		return epgm.PVInt(int64(emb.ID(c.col)))
	case cellPath:
		if emb.IsNullAt(c.col) {
			return epgm.Null
		}
		return epgm.PVString(string(appendPathText(nil, emb.Embedding, c.col)))
	case cellProp:
		return emb.prop(c.col)
	case cellExpr:
		return cypher.EvalValue(c.expr, func(variable, key string) epgm.PropertyValue {
			if pc, ok := c.meta.PropColumn(variable, key); ok {
				return emb.prop(pc)
			}
			return epgm.Null
		})
	default:
		return epgm.Null
	}
}

// appendPathText appends the path at column col as its id list, "[1 2 3]".
func appendPathText(dst []byte, emb embedding.Embedding, col int) []byte {
	dst = append(dst, '[')
	for j, n := 0, emb.PathLen(col); j < n; j++ {
		if j > 0 {
			dst = append(dst, ' ')
		}
		dst = strconv.AppendUint(dst, uint64(emb.PathID(col, j)), 10)
	}
	return append(dst, ']')
}

// returnPlan is the RETURN clause compiled against one result.
type returnPlan struct {
	ret     cypher.ReturnClause
	columns []string
	// cells holds one cell per output column; for an aggregate item it is
	// the cell of the function's argument (cellNull for count(*)).
	cells      []cell
	aggregates bool
}

func (r *Result) compileReturn() *returnPlan {
	p := &returnPlan{ret: r.QueryGraph.Return, columns: r.Columns()}
	p.cells = make([]cell, len(p.columns))
	if p.ret.Star {
		for i, name := range p.columns {
			p.cells[i] = r.compileCell(&cypher.VarRef{Var: name})
		}
		return p
	}
	for i, item := range p.ret.Items {
		e := item.Expr
		if fc, ok := e.(*cypher.FuncCall); ok && fc.Aggregate() {
			p.aggregates = true
			if fc.Star {
				continue
			}
			e = fc.Arg
		}
		p.cells[i] = r.compileCell(e)
	}
	return p
}

// streams reports whether every output row is a function of one embedding
// and of nothing else, so that rows can be handed on as they are walked.
func (p *returnPlan) streams() bool {
	return !p.aggregates && !p.ret.Distinct && len(p.ret.OrderBy) == 0
}

// rowSink receives the result table in order: first the plan and the number
// of rows to come, then one row at a time, either as an embedding to render
// the plan's cells from (streamed rows) or as values already computed (rows
// of the materialising pipeline). A row method that returns false wants no
// more rows: the walk ends there.
type rowSink interface {
	begin(p *returnPlan, rows int)
	embedding(emb embedding.Embedding) bool
	values(vals []epgm.PropertyValue) bool
}

// walk evaluates the RETURN clause and feeds the resulting table to sink:
// item evaluation (for RETURN * one column per non-anonymous variable),
// aggregation when items contain aggregate functions, then DISTINCT,
// ORDER BY, SKIP and LIMIT.
func (r *Result) walk(sink rowSink) {
	p := r.compileReturn()
	if p.streams() {
		lo, hi := window(r.Count(), p.ret.Skip, p.ret.Limit)
		sink.begin(p, int(hi-lo))
		var at int64 // rows in the partitions already passed
		for i := 0; i < r.Embeddings.Partitions() && at < hi; i++ {
			part := r.Embeddings.Partition(i)
			n := int64(len(part))
			from, to := min(max(lo-at, 0), n), min(hi-at, n)
			for _, emb := range part[from:to] {
				if !sink.embedding(emb) {
					return
				}
			}
			at += n
		}
		return
	}
	rows := r.materialize(p)
	sink.begin(p, len(rows))
	for _, vals := range rows {
		if !sink.values(vals) {
			return
		}
	}
}

// materialize is the part of the pipeline that needs the whole table.
func (r *Result) materialize(p *returnPlan) [][]epgm.PropertyValue {
	embeddings := r.Embeddings.Collect()
	var rows [][]epgm.PropertyValue
	var sortKeys [][]epgm.PropertyValue // parallel to rows, nil when unused

	if p.aggregates {
		rows = p.aggregateRows(embeddings)
	} else {
		// Sort expressions that do not name an output column are evaluated
		// per embedding alongside the row.
		var extraSort []cell
		for _, s := range p.ret.OrderBy {
			if _, ok := sortColumn(s.Expr, p.columns); !ok {
				extraSort = append(extraSort, r.compileCell(s.Expr))
			}
		}
		var emb located
		for _, e := range embeddings {
			emb.set(e)
			vals := make([]epgm.PropertyValue, len(p.cells))
			for i, c := range p.cells {
				vals[i] = c.value(&emb)
			}
			rows = append(rows, vals)
			if len(extraSort) > 0 {
				keys := make([]epgm.PropertyValue, len(extraSort))
				for i, c := range extraSort {
					keys[i] = c.value(&emb)
				}
				sortKeys = append(sortKeys, keys)
			}
		}
	}

	if p.ret.Distinct {
		rows, sortKeys = distinctRows(rows, sortKeys)
	}
	if len(p.ret.OrderBy) > 0 {
		orderRows(p.ret.OrderBy, p.columns, rows, sortKeys)
	}
	lo, hi := window(int64(len(rows)), p.ret.Skip, p.ret.Limit)
	return rows[lo:hi]
}

// rowsSink collects the table as Rows. Streamed rows share one backing
// array of values, each row capacity-clipped to its own cells.
type rowsSink struct {
	plan    *returnPlan
	out     []Row
	backing []epgm.PropertyValue
	row     located
}

func (s *rowsSink) begin(p *returnPlan, rows int) {
	s.plan = p
	s.out = make([]Row, 0, rows)
	if p.streams() {
		s.backing = make([]epgm.PropertyValue, rows*len(p.cells))
	}
}

func (s *rowsSink) embedding(emb embedding.Embedding) bool {
	n := len(s.plan.cells)
	vals := s.backing[:n:n]
	s.backing = s.backing[n:]
	s.row.set(emb)
	for i, c := range s.plan.cells {
		vals[i] = c.value(&s.row)
	}
	return s.values(vals)
}

func (s *rowsSink) values(vals []epgm.PropertyValue) bool {
	s.out = append(s.out, Row{Columns: s.plan.columns, Values: vals})
	return true
}

// Rows materializes the RETURN clause as a table of property values.
func (r *Result) Rows() []Row {
	var s rowsSink
	r.walk(&s)
	return s.out
}

// Columns lists the output column names of the RETURN clause. They depend
// on the query alone, not on whether anything matched.
func (r *Result) Columns() []string {
	ret := r.QueryGraph.Return
	if !ret.Star {
		columns := make([]string, len(ret.Items))
		for i, item := range ret.Items {
			columns[i] = item.Name()
		}
		return columns
	}
	var columns []string
	for c := 0; c < r.Meta.Columns(); c++ {
		v := r.Meta.Var(c)
		if qv, ok := r.QueryGraph.VertexByVar(v); ok && qv.Anonymous {
			continue
		}
		if qe, ok := r.QueryGraph.EdgeByVar(v); ok && qe.Anonymous {
			continue
		}
		columns = append(columns, v)
	}
	return columns
}

// aggState folds one aggregate function over a group.
type aggState struct {
	fn      *cypher.FuncCall
	count   int64
	sum     float64
	intOnly bool
	extreme epgm.PropertyValue // min/max
	seen    bool
}

func newAggState(fn *cypher.FuncCall) *aggState {
	return &aggState{fn: fn, intOnly: true}
}

func (a *aggState) add(v epgm.PropertyValue) {
	switch a.fn.Name {
	case "count":
		if a.fn.Star || !v.IsNull() {
			a.count++
		}
	case "sum", "avg":
		if v.IsNull() {
			return
		}
		if v.Type() != epgm.TypeInt64 {
			a.intOnly = false
		}
		a.sum += v.Float()
		a.count++
	case "min":
		if v.IsNull() {
			return
		}
		if !a.seen {
			a.extreme, a.seen = v, true
			return
		}
		if c, ok := v.Compare(a.extreme); ok && c < 0 {
			a.extreme = v
		}
	case "max":
		if v.IsNull() {
			return
		}
		if !a.seen {
			a.extreme, a.seen = v, true
			return
		}
		if c, ok := v.Compare(a.extreme); ok && c > 0 {
			a.extreme = v
		}
	}
}

func (a *aggState) result() epgm.PropertyValue {
	switch a.fn.Name {
	case "count":
		return epgm.PVInt(a.count)
	case "sum":
		if a.intOnly {
			return epgm.PVInt(int64(a.sum))
		}
		return epgm.PVFloat(a.sum)
	case "avg":
		if a.count == 0 {
			return epgm.Null
		}
		return epgm.PVFloat(a.sum / float64(a.count))
	default: // min, max
		if !a.seen {
			return epgm.Null
		}
		return a.extreme
	}
}

// aggregateRows implements implicit grouping: non-aggregate items form the
// group key, aggregate items fold over each group. Groups appear in
// first-occurrence order.
func (p *returnPlan) aggregateRows(embeddings []embedding.Embedding) [][]epgm.PropertyValue {
	items := p.ret.Items
	type group struct {
		keyVals []epgm.PropertyValue
		aggs    map[int]*aggState
	}
	groups := map[string]*group{}
	var order []string

	var keyIdx, aggIdx []int
	for i, item := range items {
		if fc, ok := item.Expr.(*cypher.FuncCall); ok && fc.Aggregate() {
			aggIdx = append(aggIdx, i)
		} else {
			keyIdx = append(keyIdx, i)
		}
	}
	var emb located
	for _, e := range embeddings {
		emb.set(e)
		keyVals := make([]epgm.PropertyValue, len(keyIdx))
		var kb strings.Builder
		for i, idx := range keyIdx {
			keyVals[i] = p.cells[idx].value(&emb)
			kb.WriteString(valueKey(keyVals[i]))
			kb.WriteByte(0)
		}
		key := kb.String()
		gr, ok := groups[key]
		if !ok {
			gr = &group{keyVals: keyVals, aggs: map[int]*aggState{}}
			for _, idx := range aggIdx {
				gr.aggs[idx] = newAggState(items[idx].Expr.(*cypher.FuncCall))
			}
			groups[key] = gr
			order = append(order, key)
		}
		for _, idx := range aggIdx {
			// count(*) has a cellNull, whose Null it counts all the same.
			gr.aggs[idx].add(p.cells[idx].value(&emb))
		}
	}

	rows := make([][]epgm.PropertyValue, 0, len(order))
	for _, key := range order {
		gr := groups[key]
		vals := make([]epgm.PropertyValue, len(items))
		for i, idx := range keyIdx {
			vals[idx] = gr.keyVals[i]
		}
		for _, idx := range aggIdx {
			vals[idx] = gr.aggs[idx].result()
		}
		rows = append(rows, vals)
	}
	return rows
}

// valueKey renders a property value for grouping/distinct keys, including
// its type so 1 and "1" stay distinct.
func valueKey(v epgm.PropertyValue) string {
	return fmt.Sprintf("%d:%s", v.Type(), v.String())
}

func distinctRows(rows [][]epgm.PropertyValue, sortKeys [][]epgm.PropertyValue) ([][]epgm.PropertyValue, [][]epgm.PropertyValue) {
	seen := map[string]struct{}{}
	outRows := rows[:0:0]
	var outKeys [][]epgm.PropertyValue
	for i, vals := range rows {
		var kb strings.Builder
		for _, v := range vals {
			kb.WriteString(valueKey(v))
			kb.WriteByte(0)
		}
		key := kb.String()
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		outRows = append(outRows, vals)
		if sortKeys != nil {
			outKeys = append(outKeys, sortKeys[i])
		}
	}
	if sortKeys == nil {
		return outRows, nil
	}
	return outRows, outKeys
}

// sortColumn matches a sort expression to an output column: by alias name
// or by textual expression equality.
func sortColumn(e cypher.Expr, columns []string) (int, bool) {
	if ref, ok := e.(*cypher.VarRef); ok {
		for i, c := range columns {
			if c == ref.Var {
				return i, true
			}
		}
	}
	text := cypher.ExprString(e)
	for i, c := range columns {
		if c == text {
			return i, true
		}
	}
	return 0, false
}

// orderRows sorts rows in place by the ORDER BY items. Sort expressions
// naming output columns compare row values; others use the pre-computed
// per-embedding sort keys (only available without aggregation).
func orderRows(orderBy []cypher.SortItem, columns []string, rows, sortKeys [][]epgm.PropertyValue) {
	type plan struct {
		rowCol int // -1 when using sortKeys
		keyCol int
		desc   bool
	}
	plans := make([]plan, 0, len(orderBy))
	extra := 0
	for _, s := range orderBy {
		if col, ok := sortColumn(s.Expr, columns); ok {
			plans = append(plans, plan{rowCol: col, keyCol: -1, desc: s.Desc})
			continue
		}
		plans = append(plans, plan{rowCol: -1, keyCol: extra, desc: s.Desc})
		extra++
	}
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	valueAt := func(p plan, i int) epgm.PropertyValue {
		if p.rowCol >= 0 {
			return rows[idx[i]][p.rowCol]
		}
		if sortKeys == nil || p.keyCol >= len(sortKeys[idx[i]]) {
			return epgm.Null
		}
		return sortKeys[idx[i]][p.keyCol]
	}
	sort.SliceStable(idx, func(a, b int) bool {
		for _, p := range plans {
			va, vb := valueAt(p, a), valueAt(p, b)
			// Nulls sort last regardless of direction.
			if va.IsNull() && vb.IsNull() {
				continue
			}
			if va.IsNull() {
				return false
			}
			if vb.IsNull() {
				return true
			}
			c, ok := va.Compare(vb)
			if !ok || c == 0 {
				continue
			}
			if p.desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	sorted := make([][]epgm.PropertyValue, len(rows))
	for i, j := range idx {
		sorted[i] = rows[j]
	}
	copy(rows, sorted)
}

// window returns the half-open range of an n-row table that SKIP and LIMIT
// keep (a negative limit is no limit).
func window(n, skip, limit int64) (lo, hi int64) {
	lo = min(max(skip, 0), n)
	if limit >= 0 && limit < n-lo {
		return lo, lo + limit
	}
	return lo, n
}
