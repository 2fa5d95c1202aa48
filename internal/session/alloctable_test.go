package session

import (
	"flag"
	"fmt"
	"io"
	"os"
	"testing"

	"gradoop/internal/benchkit"
	"gradoop/internal/dataflow"
	"gradoop/internal/ldbc"
)

var allocTable = flag.Bool("alloc-table", false, "run TestAllocTable (make alloc-table)")

// TestAllocTable is a tool, not a check (make alloc-table): it prints where
// the bytes of an executed request go. Over the generated LDBC graph the
// benchmark runs on (SF 3, seed 2017, 4 partitions, result cache off) it
// serves the benchmark's twelve request classes through Execute + WriteRows
// and prints, per class, KiB and heap objects a request, then - from the heap
// profile of every allocation of one more pass of all twelve - the flat table
// of bytes and objects by allocating function (benchkit.AllocTable). The graph is
// bound in memory, not read back from CSV, and nothing goes over HTTP, so the
// per-class numbers sit a little under the benchmark's alloc_kb_per_req;
// between two commits they move as it moves. Last, per class and per operator
// that writes rows, the KiB of the id, path and property sections of what it
// writes a request (benchkit.WrittenTable). The cluster's section is
// internal/cluster's TestAllocTable.
func TestAllocTable(t *testing.T) {
	if !*allocTable {
		t.Skip("a tool: run it with make alloc-table")
	}
	gen := ldbc.Generate(dataflow.NewEnv(dataflow.DefaultConfig(1)), ldbc.Config{ScaleFactor: 3, Seed: 2017})
	s := New(gen.Graph, Options{Workers: 4, NoResultCache: true})
	defer s.Close()
	classes := benchkit.RequestClasses(gen)
	names := make([]string, len(classes))
	for i, c := range classes {
		names[i] = c.Name
	}
	benchkit.AllocTable(os.Stdout, names, func(i int) int64 {
		r, err := s.Execute(Request{Query: classes[i].Query, Params: classes[i].Params})
		if err != nil {
			t.Fatalf("%s: %v", classes[i].Name, err)
		}
		if _, err := r.WriteRows(io.Discard); err != nil {
			t.Fatalf("%s: %v", classes[i].Name, err)
		}
		return r.Count
	}, 8, 12)

	// What the operators that write rows write a request, by section.
	fmt.Println()
	st := s.snapshot()
	benchkit.WrittenTable(os.Stdout, names, func(i int) []benchkit.Written {
		prep, _, err := s.compile(st, CanonicalQuery(classes[i].Query), nil)
		if err != nil {
			t.Fatalf("%s: %v", classes[i].Name, err)
		}
		_, access := st.data.Bind(dataflow.NewEnv(dataflow.DefaultConfig(s.opts.Workers)))
		written, err := benchkit.WrittenBy(prep, access, classes[i].Params)
		if err != nil {
			t.Fatalf("%s: %v", classes[i].Name, err)
		}
		return written
	})
}
