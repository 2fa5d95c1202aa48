package session

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"text/tabwriter"

	"gradoop/internal/benchkit"
	"gradoop/internal/dataflow"
	"gradoop/internal/epgm"
	"gradoop/internal/ldbc"
)

var allocTable = flag.Bool("alloc-table", false, "run TestAllocTable (make alloc-table)")

// TestAllocTable is a tool, not a check (make alloc-table): it prints where
// the bytes of an executed request go. Over the generated LDBC graph the
// benchmark runs on (SF 3, seed 2017, 4 partitions, result cache off) it
// serves the benchmark's twelve request classes through Execute + WriteRows
// and prints, per class, KiB and heap objects a request, then - from the heap
// profile at one sample per 4 KiB, over one more pass of all twelve - the flat
// table of bytes by allocating function. The graph is bound in memory, not
// read back from CSV, and nothing goes over HTTP, so the per-class numbers sit
// a little under the benchmark's alloc_kb_per_req; between two commits they
// move as it moves.
func TestAllocTable(t *testing.T) {
	if !*allocTable {
		t.Skip("a tool: run it with make alloc-table")
	}
	const reps, tableRows = 8, 12
	gen := ldbc.Generate(dataflow.NewEnv(dataflow.DefaultConfig(1)), ldbc.Config{ScaleFactor: 3, Seed: 2017})
	common, medium, rare := gen.FirstNamesBySelectivity()
	s := New(gen.Graph, Options{Workers: 4, NoResultCache: true})
	defer s.Close()

	type class struct {
		name string
		req  Request
	}
	var classes []class
	for _, q := range benchkit.AllQueries {
		if !q.Operational() {
			classes = append(classes, class{strings.ToLower(q.String()), Request{Query: q.Text()}})
			continue
		}
		for _, sel := range []struct{ name, first string }{{"rare", rare}, {"medium", medium}, {"common", common}} {
			classes = append(classes, class{strings.ToLower(q.String()) + "_" + sel.name,
				Request{Query: q.Text(), Params: map[string]epgm.PropertyValue{"firstName": epgm.PVString(sel.first)}}})
		}
	}
	run := func(c class) int64 {
		r, err := s.Execute(c.req)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if _, err := r.WriteRows(io.Discard); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		return r.Count
	}

	out := tabwriter.NewWriter(os.Stdout, 0, 8, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(out, "class\trows\tKiB/req\tobjects/req\t")
	for _, c := range classes {
		rows := run(c) // plans, and warms what a first request warms
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < reps; i++ {
			run(c)
		}
		runtime.ReadMemStats(&after)
		fmt.Fprintf(out, "%s\t%d\t%.1f\t%.1f\t\n", c.name, rows,
			float64(after.TotalAlloc-before.TotalAlloc)/1024/reps, float64(after.Mallocs-before.Mallocs)/reps)
	}
	out.Flush()

	// The flat table: bytes by the function that called the allocator, summed
	// over one pass of the twelve classes.
	runtime.MemProfileRate = 4096
	before := allocatedByFunction()
	for _, c := range classes {
		run(c)
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
	for _, r := range table[:min(len(table), tableRows)] {
		fmt.Fprintf(out, "%s\t%d\t%.1f %%\t\n", r.fn, r.bytes>>10, 100*float64(r.bytes)/float64(total))
		shown += r.bytes
	}
	fmt.Fprintf(out, "(%d more)\t%d\t%.1f %%\t\n", max(len(table)-tableRows, 0), (total-shown)>>10, 100*float64(total-shown)/float64(total))
	fmt.Fprintf(out, "all twelve classes, once\t%d\t\t\n", total>>10)
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
