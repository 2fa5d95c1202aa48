package main

import (
	"bytes"
	"fmt"
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
