package lint_test

import (
	"path/filepath"
	"strings"
	"testing"

	"gradoop/internal/lint"
	"gradoop/internal/lint/load"
)

// TestLintIgnoreAudit pins the lint:ignore directive audit: unknown
// analyzer names, missing reasons and empty directives are findings (dead
// suppressions are worse than none — they look like coverage), while
// well-formed directives and the "all" wildcard are silent. The audit runs
// inside every lint.Run regardless of the analyzer set, so zero analyzers
// isolates it.
func TestLintIgnoreAudit(t *testing.T) {
	root, err := load.ModuleRoot(".")
	if err != nil {
		t.Fatalf("locating module root: %v", err)
	}
	l, err := load.New(root, "./...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	abs, err := filepath.Abs(filepath.Join("testdata", "src", "lintignore"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := l.CheckDir("lintignore", abs)
	if err != nil {
		t.Fatalf("checking fixture: %v", err)
	}
	findings, err := lint.Run(c, nil)
	if err != nil {
		t.Fatalf("running audit: %v", err)
	}

	want := []string{
		`lint:ignore names unknown analyzer "goleek" (dead suppression)`,
		"lint:ignore directive has no reason; write `//lint:ignore <analyzer> <reason>`",
		`lint:ignore names unknown analyzer "ctxpol" (dead suppression)`,
		"lint:ignore directive names no analyzer",
	}
	if len(findings) != len(want) {
		for _, f := range findings {
			t.Logf("finding: %s", f)
		}
		t.Fatalf("got %d findings, want %d", len(findings), len(want))
	}
	for i, f := range findings {
		if f.Analyzer != "lintignore" {
			t.Errorf("finding %d: analyzer = %q, want lintignore", i, f.Analyzer)
		}
		if f.Message != want[i] {
			t.Errorf("finding %d: message = %q, want %q", i, f.Message, want[i])
		}
		if !strings.HasSuffix(f.Pos.Filename, "lintignore.go") {
			t.Errorf("finding %d: unexpected file %s", i, f.Pos.Filename)
		}
	}
}
