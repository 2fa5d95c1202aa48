package lint_test

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"gradoop/internal/lint"
	"gradoop/internal/lint/load"
)

// TestDocsListTheAnalyzers holds the two hand-written lists of the suite -
// README's table and the verify skill's "Analyzers:" line - to
// lint.Analyzers(): retiring or adding a rule without fixing them is a red
// test, not a stale document.
func TestDocsListTheAnalyzers(t *testing.T) {
	root, err := load.ModuleRoot(".")
	if err != nil {
		t.Fatalf("locating module root: %v", err)
	}
	var want []string
	for _, a := range lint.Analyzers() {
		want = append(want, a.Name)
	}
	slices.Sort(want)

	docs := []struct {
		file string
		// names finds the document's analyzer names.
		names func(text string) []string
	}{
		{"README.md", func(text string) []string {
			var names []string
			for _, m := range regexp.MustCompile("(?m)^\\| `([a-z]+)` +\\|").FindAllStringSubmatch(
				tableAfter(text, "| Analyzer "), -1) {
				names = append(names, m[1])
			}
			return names
		}},
		{filepath.Join(".claude", "skills", "verify", "SKILL.md"), func(text string) []string {
			m := regexp.MustCompile(`(?m)^\s*Analyzers: (.+)$`).FindStringSubmatch(text)
			if m == nil {
				return nil
			}
			return strings.Split(m[1], ", ")
		}},
	}
	for _, doc := range docs {
		text, err := os.ReadFile(filepath.Join(root, doc.file))
		if err != nil {
			t.Fatal(err)
		}
		got := doc.names(string(text))
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s lists %v, lint.Analyzers() is %v", doc.file, got, want)
		}
	}
}

// tableAfter returns the markdown table whose header row starts with header:
// that row and the lines after it up to the first one that is not a row.
func tableAfter(text, header string) string {
	i := strings.Index(text, header)
	if i < 0 {
		return ""
	}
	table := text[i:]
	if end := regexp.MustCompile(`(?m)^[^|]`).FindStringIndex(table); end != nil {
		table = table[:end[0]]
	}
	return table
}
