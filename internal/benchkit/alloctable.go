package benchkit

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"
	"strings"
	"text/tabwriter"

	"gradoop/internal/core"
	"gradoop/internal/dataflow"
	"gradoop/internal/embedding"
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

// AllocTable prints where the bytes and objects of requests go (make
// alloc-table): per class, after one request that plans and warms, the
// median KiB and heap objects of reps more, each measured alone - so that
// what the process does beside the requests now and then, a cluster's
// heartbeat and the registry snapshots it carries, moves a request or two of
// the reps and not the figure; then - from the heap profile of one
// more pass of every class - the top rows, by bytes, of the flat table of
// bytes and objects by allocating function. serve runs one request of class i
// and returns its row count.
func AllocTable(w io.Writer, names []string, serve func(i int) int64, reps, top int) {
	out := tabwriter.NewWriter(w, 0, 8, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(out, "class\trows\tKiB/req\tobjects/req\t")
	kib, objects := make([]float64, reps), make([]float64, reps)
	for i, name := range names {
		rows := serve(i)
		for r := range reps {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			serve(i)
			runtime.ReadMemStats(&after)
			kib[r], objects[r] = float64(after.TotalAlloc-before.TotalAlloc)/1024, float64(after.Mallocs-before.Mallocs)
		}
		fmt.Fprintf(out, "%s\t%d\t%.1f\t%.1f\t\n", name, rows, median(kib), median(objects))
	}
	out.Flush()

	// The flat table: bytes and objects by the function that called the
	// allocator, summed over one pass of the classes.
	byFunc := map[string]allocs{}
	var total allocs
	for _, s := range onePass(names, serve) {
		fn := caller(s.stack)
		byFunc[fn] = byFunc[fn].plus(s.allocs)
		total = total.plus(s.allocs)
	}
	type row struct {
		fn string
		allocs
	}
	var table []row
	for fn, a := range byFunc {
		table = append(table, row{fn, a})
	}
	sort.Slice(table, func(i, j int) bool { return table[i].bytes > table[j].bytes })
	fmt.Fprintf(out, "\nfunction\tKiB\tshare\tobjects\tshare\t\n")
	var shown allocs
	for _, r := range table[:min(len(table), top)] {
		r.print(out, r.fn, total)
		shown = shown.plus(r.allocs)
	}
	allocs{total.bytes - shown.bytes, total.objects - shown.objects}.print(out, fmt.Sprintf("(%d more)", max(len(table)-top, 0)), total)
	fmt.Fprintf(out, "all %d classes, once\t%d\t\t%d\t\t\n", len(names), total.bytes>>10, total.objects)
	out.Flush()
}

// Phase is a share of a request's allocations told by call stack: a sample
// belongs to the first phase one of whose rules it satisfies, a rule being the
// functions that must all be on the sample's stack, named as the flat table
// names them ("cluster.(*Worker).runJob"); a name that ends in "." stands for
// every function of that package; one that starts with "-" must not be on the
// stack, and one that starts with "@" must be the function that called the
// allocator.
type Phase struct {
	Name  string
	Rules [][]string
}

// PhaseTable prints, from the heap profile of one pass of every class, the
// KiB and objects of each of phases and of the rest, over the pass and a
// request.
func PhaseTable(w io.Writer, names []string, serve func(i int) int64, phases []Phase) {
	byPhase := make([]allocs, len(phases)+1) // the last is the rest
	var total allocs
	for _, s := range onePass(names, serve) {
		p := phaseOf(s.stack, phases)
		byPhase[p] = byPhase[p].plus(s.allocs)
		total = total.plus(s.allocs)
	}
	out := tabwriter.NewWriter(w, 0, 8, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(out, "\nphase\tKiB\tshare\tobjects\tshare\tobjects/req\t\n")
	for p, a := range byPhase {
		name := "rest"
		if p < len(phases) {
			name = phases[p].Name
		}
		fmt.Fprintf(out, "%s\t%d\t%.1f %%\t%d\t%.1f %%\t%.0f\t\n", name, a.bytes>>10, pct(a.bytes, total.bytes),
			a.objects, pct(a.objects, total.objects), float64(a.objects)/float64(len(names)))
	}
	fmt.Fprintf(out, "all %d classes, once\t%d\t\t%d\t\t%.0f\t\n", len(names), total.bytes>>10, total.objects,
		float64(total.objects)/float64(len(names)))
	out.Flush()
}

// phaseOf returns the index of the phase of a sample of stack, len(phases)
// for the rest.
func phaseOf(stack []string, phases []Phase) int {
	on := func(name string) bool {
		return slices.ContainsFunc(stack, func(fn string) bool { return matches(fn, name) })
	}
	for p, ph := range phases {
		for _, rule := range ph.Rules {
			all := true
			for _, name := range rule {
				if not, ok := strings.CutPrefix(name, "-"); ok {
					all = all && !on(not)
				} else if fn, ok := strings.CutPrefix(name, "@"); ok {
					all = all && matches(caller(stack), fn)
				} else {
					all = all && on(name)
				}
			}
			if all {
				return p
			}
		}
	}
	return len(phases)
}

// matches reports whether fn is the function name names, or of the package
// a name ending in "." does.
func matches(fn, name string) bool {
	return fn == name || strings.HasSuffix(name, ".") && strings.HasPrefix(fn, name)
}

// allocs is what a heap profile counts: bytes and objects allocated.
type allocs struct{ bytes, objects int64 }

func (a allocs) plus(b allocs) allocs { return allocs{a.bytes + b.bytes, a.objects + b.objects} }

func (a allocs) print(w io.Writer, name string, total allocs) {
	fmt.Fprintf(w, "%s\t%d\t%.1f %%\t%d\t%.1f %%\t\n", name, a.bytes>>10, pct(a.bytes, total.bytes), a.objects, pct(a.objects, total.objects))
}

// pct is part as a percentage of whole.
func pct(part, whole int64) float64 { return 100 * float64(part) / float64(whole) }

// sample is what the allocations of one call stack came to: the functions on
// it, innermost first, as the tables name them.
type sample struct {
	stack []string
	allocs
}

// onePass serves every class once and returns what the pass allocated, by
// call stack. Every allocation is in the heap profile (MemProfileRate 1), so
// objects are counted, not estimated from samples.
func onePass(names []string, serve func(i int) int64) []sample {
	runtime.MemProfileRate = 1
	before := heapProfile()
	for i := range names {
		serve(i)
	}
	var out []sample
	for stack, a := range heapProfile() {
		b := before[stack]
		if d := (allocs{a.bytes - b.bytes, a.objects - b.objects}); d.objects > 0 {
			if fns := functions(stack); !slices.Contains(fns, "benchkit.heapProfile") { // the profile of before
				out = append(out, sample{fns, d})
			}
		}
	}
	return out
}

// Written is what one operator writes in a run: its rows and the bytes of
// their id, path and property sections, and the rows of its larger input.
type Written struct {
	Op                   string
	Rows, ID, Path, Prop int64
	In                   int64
}

// Yield is the operator's rows over its larger input's rows, or 0 for an
// operator whose inputs wrote nothing.
func (w Written) Yield() float64 {
	if w.In == 0 {
		return 0
	}
	return float64(w.Rows) / float64(w.In)
}

// WrittenBy runs prep's plan over access with params bound, once, and returns
// what each of its operators that write rows - a join, a cartesian product,
// an outer join, an expansion - wrote in that run, in EXPLAIN order. It is a
// tool's walk (make alloc-table).
func WrittenBy(prep *core.Prepared, access planner.GraphAccess, params map[string]epgm.PropertyValue) ([]Written, error) {
	binding, err := prep.Template.Bind(params)
	if err != nil {
		return nil, err
	}
	byOp := map[operators.Operator]Written{}
	rows := map[operators.Operator]int64{}
	var offs []uint32
	run := operators.NewRun(access, binding).Observe(func(op operators.Operator, out *dataflow.Dataset[embedding.Embedding]) {
		rows[op] = out.Count()
		switch op.(type) {
		case *operators.JoinEmbeddings, *operators.CartesianProduct, *operators.OptionalJoinEmbeddings, *operators.ExpandEmbeddings:
		default:
			return
		}
		w := Written{Op: op.Description(), Rows: out.Count()}
		for _, e := range out.Collect() {
			var props []byte
			offs, props = e.AppendPropOffsets(offs[:0])
			id := int64(9 * e.Columns())
			w.ID += id
			w.Prop += int64(len(props))
			w.Path += int64(e.SizeBytes()) - id - int64(len(props))
		}
		byOp[op] = w
	})
	env := access.Env()
	env.Begin(nil)
	prep.Plan.Root.Evaluate(run)
	if err := env.Finish(); err != nil {
		return nil, err
	}
	var out []Written
	for _, n := range prep.Plan.Nodes() {
		w, ok := byOp[n.Op]
		if !ok {
			continue
		}
		for _, in := range n.Op.Children() {
			// A leaf's scan that tests a key set is its consumer's, observed
			// under the input itself.
			read, ok := rows[in]
			if !ok {
				read = rows[operators.Unwrap(in)]
			}
			w.In = max(w.In, read)
		}
		out = append(out, w)
	}
	return out, nil
}

// WrittenTable prints, per class and per operator that writes rows, the KiB
// of the id, path and property sections of what a request of the class writes
// (WrittenBy): what a row carries that the next operator or the result reads,
// and the operator's yield, its rows over its larger input's.
func WrittenTable(w io.Writer, names []string, written func(i int) []Written) {
	out := tabwriter.NewWriter(w, 0, 8, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(out, "class / operator that writes rows\trows\tyield\tid KiB\tpath KiB\tprop KiB\t")
	kib := func(b int64) string { return fmt.Sprintf("%.0f", float64(b)/1024) }
	for i, name := range names {
		ops := written(i)
		var sum Written
		for _, op := range ops {
			sum.Rows += op.Rows
			sum.ID, sum.Path, sum.Prop = sum.ID+op.ID, sum.Path+op.Path, sum.Prop+op.Prop
		}
		fmt.Fprintf(out, "%s\t%d\t\t%s\t%s\t%s\t\n", name, sum.Rows, kib(sum.ID), kib(sum.Path), kib(sum.Prop))
		for _, op := range ops {
			fmt.Fprintf(out, "  %s\t%d\t%.3g\t%s\t%s\t%s\t\n", op.Op, op.Rows, op.Yield(), kib(op.ID), kib(op.Path), kib(op.Prop))
		}
	}
	out.Flush()
}

// heapProfile reads the heap profile - as of the last garbage collection,
// hence the two it runs first - and returns what has been allocated so far by
// call stack (its innermost 32 frames).
func heapProfile() map[[32]uintptr]allocs {
	runtime.GC()
	runtime.GC()
	var records []runtime.MemProfileRecord
	for n, ok := runtime.MemProfile(nil, true); !ok; {
		records = make([]runtime.MemProfileRecord, n+64)
		if n, ok = runtime.MemProfile(records, true); ok {
			records = records[:n]
		}
	}
	byStack := map[[32]uintptr]allocs{}
	for _, r := range records {
		byStack[r.Stack0] = byStack[r.Stack0].plus(allocs{r.AllocBytes, r.AllocObjects})
	}
	return byStack
}

// functions names the functions of a stack, innermost first: their package
// path without gradoop/internal/, generic instantiations folded into one name.
func functions(stack [32]uintptr) []string {
	var names []string
	pcs := stack[:]
	if i := slices.Index(pcs, 0); i >= 0 {
		pcs = pcs[:i]
	}
	frames := runtime.CallersFrames(pcs)
	for {
		f, more := frames.Next()
		if name := f.Function; name != "" {
			for open := strings.LastIndex(name, "["); open >= 0; open = strings.LastIndex(name, "[") {
				name = name[:open] + name[open+strings.Index(name[open:], "]")+1:] // innermost first: type arguments nest
			}
			names = append(names, strings.TrimPrefix(name, "gradoop/internal/"))
		}
		if !more {
			return names
		}
	}
}

// caller is the function of a stack that called the allocator: the first
// outside the runtime.
func caller(stack []string) string {
	for _, fn := range stack {
		if !strings.HasPrefix(fn, "runtime.") && !strings.HasPrefix(fn, "internal/runtime/") {
			return fn
		}
	}
	return "(unknown)"
}

// median returns the median of xs, which it sorts.
func median(xs []float64) float64 {
	slices.Sort(xs)
	if n := len(xs); n%2 == 0 {
		return (xs[n/2-1] + xs[n/2]) / 2
	}
	return xs[len(xs)/2]
}
