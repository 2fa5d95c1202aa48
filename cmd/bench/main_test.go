package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// The command is the paper's evaluation and nothing else. Serving and
// cluster speed are measured by bench/ (BENCHMARK.json), overload by the
// chaos test in internal/server; their old names must stay unknown here.
const validExperiments = "figure3|figure4|figure5|table3|table4|cards|extended|recovery|analyze|all"

func TestUnknownExperimentExits2(t *testing.T) {
	for _, name := range []string{"serve", "cluster", "chaos", "figure6", ""} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-exp", name}, &stdout, &stderr); code != 2 {
			t.Errorf("-exp %q: exit %d, want 2", name, code)
		}
		if want := fmt.Sprintf("bench: unknown experiment %q (want %s)\n", name, validExperiments); stderr.String() != want {
			t.Errorf("-exp %q: message %q, want %q", name, stderr.String(), want)
		}
		if stdout.Len() != 0 {
			t.Errorf("-exp %q printed a report: %q", name, stdout.String())
		}
	}
}

var update = flag.Bool("update", false, "rewrite testdata/exp_all.golden from this run")

// selfTime is the one column of the report that is measured, not simulated.
var selfTime = regexp.MustCompile(` self=[^ \]]+`)

// TestExpAllGolden (`make figures-check`) holds everything `-exp all` prints
// but the wall-clock self= column to testdata/exp_all.golden: Figures 3-5,
// Tables 3-4, the cardinalities, the recovery table and every EXPLAIN ANALYZE
// plan come from the simulated cost model, so an engine change that claims to
// leave the charges alone leaves this file alone. A change that means to move
// them regenerates it with `make figures-update` and shows the diff.
func TestExpAllGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "all"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-exp all: exit %d: %s", code, stderr.String())
	}
	got := selfTime.ReplaceAll(stdout.Bytes(), nil)
	const golden = "testdata/exp_all.golden"
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Errorf("the report has %d lines, the golden file %d", len(gotLines), len(wantLines))
	}
	for i := 0; i < min(len(gotLines), len(wantLines)); i++ {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d:\n- %s\n+ %s", i+1, wantLines[i], gotLines[i])
		}
	}
}
