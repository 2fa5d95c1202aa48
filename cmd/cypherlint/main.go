// Command cypherlint runs the project's static-analysis suite,
// lint.Analyzers (see internal/lint; `cypherlint -help` lists the rules).
// It has two modes:
//
//	cypherlint [-json] [-stats] [packages]      standalone; defaults to ./...
//	go vet -vettool=$(which cypherlint) ./...
//
// The vettool mode speaks the cmd/go vet protocol: `-V=full` prints a
// version fingerprint for the build cache, `-flags` declares no extra
// flags, and a single *.cfg argument carries the JSON unit description
// (sources, import map, export-data files) for one package.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gradoop/internal/lint"
	"gradoop/internal/lint/analysis"
	"gradoop/internal/lint/load"
)

func main() {
	// The vet protocol probes come before flag parsing: cmd/go invokes the
	// tool with exactly one of these as the first argument.
	if len(os.Args) == 2 {
		switch {
		case strings.HasPrefix(os.Args[1], "-V"):
			// The output format is fixed by cmd/go's vet tool handshake: it
			// must end in a buildID= field (do-not-cache opts this tool's
			// results out of the build cache, as x/tools' unitchecker does).
			fmt.Printf("%s version devel buildID=do-not-cache\n", os.Args[0])
			return
		case os.Args[1] == "-flags":
			fmt.Println("[]")
			return
		case strings.HasSuffix(os.Args[1], ".cfg"):
			os.Exit(runVetUnit(os.Args[1]))
		}
	}

	jsonOut := flag.Bool("json", false, "emit findings as JSON")
	statsOut := flag.Bool("stats", false, "print per-analyzer wall time and finding counts to stderr")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: cypherlint [-json] [-stats] [packages]\n\nAnalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-18s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	var stats *lint.Stats
	if *statsOut {
		stats = &lint.Stats{}
	}
	findings, err := runStandalone(patterns, stats)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cypherlint:", err)
		os.Exit(1)
	}
	if *statsOut {
		fmt.Fprintf(os.Stderr, "%-18s %12s %9s\n", "analyzer", "wall", "findings")
		for _, s := range stats.Rows() {
			fmt.Fprintf(os.Stderr, "%-18s %12s %9d\n", s.Analyzer, s.Time.Round(time.Microsecond), s.Findings)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "cypherlint:", err)
			os.Exit(1)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// runStandalone loads the patterns from the enclosing module and runs the
// full suite over every matched package as one program, so the flow
// analyzers see cross-package call-graph summaries.
func runStandalone(patterns []string, stats *lint.Stats) ([]analysis.Finding, error) {
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	root, err := load.ModuleRoot(wd)
	if err != nil {
		return nil, err
	}
	loader, err := load.New(root, patterns...)
	if err != nil {
		return nil, err
	}
	pkgs, err := loader.Roots()
	if err != nil {
		return nil, err
	}
	findings, err := lint.RunProgram(pkgs, lint.Analyzers(), stats)
	if err != nil {
		return nil, err
	}
	if findings == nil {
		findings = []analysis.Finding{}
	}
	return findings, nil
}
