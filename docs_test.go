package gradoop

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

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
	const root = "."
	var declared []string
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark)\w*)\(`)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
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
