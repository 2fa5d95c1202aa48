// Command bench regenerates the paper's evaluation tables and figures
// (§4): the speedup-over-workers experiment (Figure 3), the data-volume
// experiment (Figure 4), the predicate-selectivity experiment (Figure 5),
// the intermediate-result-size table (Table 3), the full runtime matrix
// (Table 4) and the appendix result cardinalities. The analyze experiment
// prints every query's EXPLAIN ANALYZE plan and can export per-query
// Chrome trace timelines.
//
// Usage:
//
//	bench -exp all
//	bench -exp figure3 -sf-small 0.1 -sf-large 1.0
//	bench -exp analyze -trace out   # writes out-Q1.json .. out-Q6.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"gradoop/internal/benchkit"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command; it returns the exit status: 2 for an unknown
// experiment, 1 for a failed one.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	sfSmall := fs.Float64("sf-small", 0.1, "small scale factor (the paper's SF10 stand-in)")
	sfLarge := fs.Float64("sf-large", 1.0, "large scale factor (the paper's SF100 stand-in)")
	seed := fs.Int64("seed", 2017, "generator seed")
	tracePrefix := fs.String("trace", "", "analyze experiment: write per-query Chrome traces to <prefix>-Q<n>.json")

	// The evaluation, in the order `-exp all` runs it.
	experiments := []struct {
		name string
		run  func(*benchkit.Runner, io.Writer) error
	}{
		{"figure3", benchkit.Figure3},
		{"figure4", benchkit.Figure4},
		{"figure5", benchkit.Figure5},
		{"table3", benchkit.Table3},
		{"table4", benchkit.Table4},
		{"cards", benchkit.Cardinalities},
		{"extended", benchkit.Extended},
		{"recovery", benchkit.Recovery},
		{"analyze", func(r *benchkit.Runner, w io.Writer) error { return benchkit.Analyze(r, w, *tracePrefix) }},
	}
	var names []string
	for _, e := range experiments {
		names = append(names, e.name)
	}
	valid := strings.Join(append(names, "all"), "|")
	exp := fs.String("exp", "all", "experiment: "+valid)
	fs.Parse(args) // ExitOnError: a malformed flag exits 2 here, -h exits 0

	r := benchkit.NewRunner()
	r.SFSmall = *sfSmall
	r.SFLarge = *sfLarge
	r.Seed = *seed

	ran := false
	for _, e := range experiments {
		if *exp != "all" && *exp != e.name {
			continue
		}
		ran = true
		if err := e.run(r, stdout); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", e.name, err)
			return 1
		}
		fmt.Fprintln(stdout)
	}
	if !ran {
		fmt.Fprintf(stderr, "bench: unknown experiment %q (want %s)\n", *exp, valid)
		return 2
	}
	return 0
}
