package lint_test

import (
	"testing"

	"gradoop/internal/lint"
	"gradoop/internal/lint/analysistest"
)

// TestAnalyzers runs each analyzer of the suite against its annotated fixture
// package, testdata/src/<name>.
func TestAnalyzers(t *testing.T) {
	for _, a := range lint.Analyzers() {
		t.Run(a.Name, func(t *testing.T) {
			analysistest.Run(t, a, a.Name)
		})
	}
}
