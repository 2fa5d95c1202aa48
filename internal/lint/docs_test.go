package lint_test

import (
	"io/fs"
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

// TestDocsCiteDeclaredTests holds the documents that send a reader to a test
// - DESIGN.md, README.md and the verify skill - to the tests there are: every
// Test... or Benchmark... name they cite is a test or benchmark function
// declared in the module, or the prefix of one (a -run or -bench pattern that
// names a family), every `make <target>` they cite is a target of the
// Makefile, and every module-relative path they quote is there: one under
// internal/, cmd/, bench/ or examples/, or a <pkg>/<file>.go under internal/.
// Folding or renaming a test, a benchmark, a target or a file without fixing
// its citations is a red test, not a dead link.
func TestDocsCiteDeclaredTests(t *testing.T) {
	root, err := load.ModuleRoot(".")
	if err != nil {
		t.Fatalf("locating module root: %v", err)
	}
	var declared []string
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark)\w*)\(`)
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case strings.HasSuffix(path, "_test.go"):
			src, err := os.ReadFile(path)
			for _, m := range decl.FindAllSubmatch(src, -1) {
				declared = append(declared, string(m[1]))
			}
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	makefile, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	var targets []string
	for _, m := range regexp.MustCompile(`(?m)^([a-z][\w-]*):`).FindAllSubmatch(makefile, -1) {
		targets = append(targets, string(m[1]))
	}
	cited := regexp.MustCompile(`\b(?:Test|Benchmark)[A-Z]\w*`)
	makeCmd := regexp.MustCompile("`make\\s+([a-z][\\w-]*)")
	quoted := regexp.MustCompile("`([^`\\n]+)`")
	modulePath := regexp.MustCompile(`^(?:internal|cmd|bench|examples)/[\w./-]*$`)
	pkgFile := regexp.MustCompile(`^[a-z]\w*(?:/\w+)*/\w+\.go$`)
	for _, doc := range []string{"DESIGN.md", "README.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")} {
		text, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		names := cited.FindAllString(string(text), -1)
		slices.Sort(names)
		for _, name := range slices.Compact(names) {
			if !slices.ContainsFunc(declared, func(d string) bool { return strings.HasPrefix(d, name) }) {
				t.Errorf("%s cites %s, which no test or benchmark function of the module is or begins with", doc, name)
			}
		}
		for _, m := range makeCmd.FindAllStringSubmatch(string(text), -1) {
			if !slices.Contains(targets, m[1]) {
				t.Errorf("%s cites make %s, which is not a target of the Makefile", doc, m[1])
			}
		}
		for _, m := range quoted.FindAllStringSubmatch(string(text), -1) {
			path := m[1]
			switch {
			case modulePath.MatchString(path):
			case pkgFile.MatchString(path):
				path = "internal/" + path
			default:
				continue
			}
			if _, err := os.Stat(filepath.Join(root, filepath.FromSlash(path))); err != nil {
				t.Errorf("%s quotes %s, which is not a path of the module", doc, m[1])
			}
		}
	}
}
