package benchkit

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"

	"gradoop/internal/core"
	"gradoop/internal/epgm"
	"gradoop/internal/ldbc"
	"gradoop/internal/operators"
	"gradoop/internal/planner"
)

// RequestClass is one request class of the benchmark: a query of the paper,
// bound for an operational query to a first name of one selectivity.
type RequestClass struct {
	Name   string // as the benchmark names it: q1_rare .. q3_common, q4 .. q6
	Query  string
	Params map[string]epgm.PropertyValue
}

// RequestClasses returns the benchmark's twelve request classes over the
// generated dataset, in the benchmark's order.
func RequestClasses(d *ldbc.Dataset) []RequestClass {
	common, medium, rare := d.FirstNamesBySelectivity()
	var classes []RequestClass
	for _, q := range AllQueries {
		name := strings.ToLower(q.String())
		if !q.Operational() {
			classes = append(classes, RequestClass{Name: name, Query: q.Text()})
			continue
		}
		for _, sel := range []struct{ name, first string }{{"rare", rare}, {"medium", medium}, {"common", common}} {
			classes = append(classes, RequestClass{Name: name + "_" + sel.name, Query: q.Text(),
				Params: map[string]epgm.PropertyValue{"firstName": epgm.PVString(sel.first)}})
		}
	}
	return classes
}

// AllocTable prints where the bytes of requests go (make alloc-table): per
// class, after one request that plans and warms, KiB and heap objects a
// request over reps more; then - from the heap profile at one sample per
// 4 KiB, over one more pass of every class - the top rows of the flat table of
// bytes by allocating function. serve runs one request of class i and returns
// its row count.
func AllocTable(w io.Writer, names []string, serve func(i int) int64, reps, top int) {
	out := tabwriter.NewWriter(w, 0, 8, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(out, "class\trows\tKiB/req\tobjects/req\t")
	for i, name := range names {
		rows := serve(i)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range reps {
			serve(i)
		}
		runtime.ReadMemStats(&after)
		fmt.Fprintf(out, "%s\t%d\t%.1f\t%.1f\t\n", name, rows,
			float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(reps), float64(after.Mallocs-before.Mallocs)/float64(reps))
	}
	out.Flush()

	// The flat table: bytes by the function that called the allocator, summed
	// over one pass of the classes.
	runtime.MemProfileRate = 4096
	before := allocatedByFunction()
	for i := range names {
		serve(i)
	}
	after := allocatedByFunction()
	type row struct {
		fn    string
		bytes int64
	}
	var table []row
	var total int64
	for fn, n := range after {
		if d := n - before[fn]; d > 0 {
			table = append(table, row{fn, d})
			total += d
		}
	}
	sort.Slice(table, func(i, j int) bool { return table[i].bytes > table[j].bytes })
	fmt.Fprintf(out, "\nfunction\tKiB\tshare\t\n")
	var shown int64
	for _, r := range table[:min(len(table), top)] {
		fmt.Fprintf(out, "%s\t%d\t%.1f %%\t\n", r.fn, r.bytes>>10, 100*float64(r.bytes)/float64(total))
		shown += r.bytes
	}
	fmt.Fprintf(out, "(%d more)\t%d\t%.1f %%\t\n", max(len(table)-top, 0), (total-shown)>>10, 100*float64(total-shown)/float64(total))
	fmt.Fprintf(out, "all %d classes, once\t%d\t\t\n", len(names), total>>10)
	out.Flush()
}

// Written is what one operator writes in a run: its rows and the bytes of
// their id, path and property sections.
type Written struct {
	Op                   string
	Rows, ID, Path, Prop int64
}

// WrittenBy runs, one at a time, the subtree of every operator of prep's plan
// that writes rows - a join, a cartesian product, an outer join, an
// expansion - over access with params bound, and returns what each wrote, in
// EXPLAIN order. It is a tool's walk (make alloc-table): every subtree runs
// from its leaves again.
func WrittenBy(prep *core.Prepared, access planner.GraphAccess, params map[string]epgm.PropertyValue) ([]Written, error) {
	binding, err := prep.Template.Bind(params)
	if err != nil {
		return nil, err
	}
	var out []Written
	var offs []uint32
	for _, n := range prep.Plan.Nodes() {
		switch n.Op.(type) {
		case *operators.JoinEmbeddings, *operators.CartesianProduct, *operators.OptionalJoinEmbeddings, *operators.ExpandEmbeddings:
		default:
			continue
		}
		sub, err := planner.Rebind(&planner.QueryPlan{Root: n.Op}, access, binding)
		if err != nil {
			return nil, err
		}
		env := access.Env()
		env.Begin(nil)
		rows := sub.Execute().Collect()
		if err := env.Finish(); err != nil {
			return nil, err
		}
		w := Written{Op: n.Op.Description(), Rows: int64(len(rows))}
		for _, e := range rows {
			var props []byte
			offs, props = e.AppendPropOffsets(offs[:0])
			id := int64(9 * e.Columns())
			w.ID += id
			w.Prop += int64(len(props))
			w.Path += int64(e.SizeBytes()) - id - int64(len(props))
		}
		out = append(out, w)
	}
	return out, nil
}

// WrittenTable prints, per class and per operator that writes rows, the KiB
// of the id, path and property sections of what a request of the class writes
// (WrittenBy): what a row carries that the next operator or the result reads.
func WrittenTable(w io.Writer, names []string, written func(i int) []Written) {
	out := tabwriter.NewWriter(w, 0, 8, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(out, "class / operator that writes rows\trows\tid KiB\tpath KiB\tprop KiB\t")
	kib := func(b int64) string { return fmt.Sprintf("%.0f", float64(b)/1024) }
	for i, name := range names {
		ops := written(i)
		var sum Written
		for _, op := range ops {
			sum.Rows += op.Rows
			sum.ID, sum.Path, sum.Prop = sum.ID+op.ID, sum.Path+op.Path, sum.Prop+op.Prop
		}
		fmt.Fprintf(out, "%s\t%d\t%s\t%s\t%s\t\n", name, sum.Rows, kib(sum.ID), kib(sum.Path), kib(sum.Prop))
		for _, op := range ops {
			fmt.Fprintf(out, "  %s\t%d\t%s\t%s\t%s\t\n", op.Op, op.Rows, kib(op.ID), kib(op.Path), kib(op.Prop))
		}
	}
	out.Flush()
}

// allocatedByFunction reads the heap profile - as of the last garbage
// collection, hence the two it runs first - and returns the bytes allocated so
// far by calling function: the first frame of a sample's stack outside the
// runtime, generic instantiations folded into one name.
func allocatedByFunction() map[string]int64 {
	runtime.GC()
	runtime.GC()
	var records []runtime.MemProfileRecord
	for n, ok := runtime.MemProfile(nil, true); !ok; {
		records = make([]runtime.MemProfileRecord, n+64)
		if n, ok = runtime.MemProfile(records, true); ok {
			records = records[:n]
		}
	}
	byFunc := map[string]int64{}
	for _, r := range records {
		if r.AllocBytes == 0 {
			continue
		}
		name := "(unknown)"
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if f.Function != "" && !strings.HasPrefix(f.Function, "runtime.") {
				name = f.Function
				break
			}
			if !more {
				break
			}
		}
		for open := strings.LastIndex(name, "["); open >= 0; open = strings.LastIndex(name, "[") {
			name = name[:open] + name[open+strings.Index(name[open:], "]")+1:] // innermost first: type arguments nest
		}
		byFunc[strings.TrimPrefix(name, "gradoop/internal/")] += r.AllocBytes
	}
	return byFunc
}
