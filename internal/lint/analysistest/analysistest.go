// Package analysistest verifies cypherlint analyzers against annotated
// fixture packages, mirroring golang.org/x/tools' analysistest convention:
// a `// want "regex"` comment asserts that the analyzer reports a
// diagnostic on that line whose message matches the regex. Any diagnostic
// without a matching want, and any want without a matching diagnostic,
// fails the test. Fixtures live under testdata/src/<dir> (the go tool
// ignores testdata directories, so they never enter the module's build).
package analysistest

import (
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"gradoop/internal/lint"
	"gradoop/internal/lint/analysis"
	"gradoop/internal/lint/load"
)

var (
	loaderMu sync.Mutex
	loader   *load.Loader
)

// sharedLoader lists the module once per test binary: fixtures import real
// module packages, so the loader needs export data for the whole module's
// dependency closure.
func sharedLoader(t *testing.T) *load.Loader {
	t.Helper()
	loaderMu.Lock()
	defer loaderMu.Unlock()
	if loader == nil {
		root, err := load.ModuleRoot(".")
		if err != nil {
			t.Fatalf("locating module root: %v", err)
		}
		l, err := load.New(root, "./...")
		if err != nil {
			t.Fatalf("loading module packages: %v", err)
		}
		loader = l
	}
	return loader
}

// Run type-checks the fixture package in testdata/src/<dir>, under the
// import path dir, and compares the analyzer's findings against the
// fixture's want annotations.
func Run(t *testing.T, a *analysis.Analyzer, dir string) {
	t.Helper()
	abs, err := filepath.Abs(filepath.Join("testdata", "src", dir))
	if err != nil {
		t.Fatal(err)
	}
	c, err := sharedLoader(t).CheckDir(dir, abs)
	if err != nil {
		t.Fatalf("checking fixture %s: %v", dir, err)
	}
	findings, err := lint.Run(c, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	wants := collectWants(t, c)
	type key struct {
		file string
		line int
	}
	for _, f := range findings {
		k := key{f.Pos.Filename, f.Pos.Line}
		matched := false
		for i, w := range wants[k.file][k.line] {
			if w != nil && w.MatchString(f.Message) {
				wants[k.file][k.line][i] = nil
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", f.Pos, f.Message)
		}
	}
	for file, lines := range wants {
		for line, ws := range lines {
			for _, w := range ws {
				if w != nil {
					t.Errorf("%s:%d: no diagnostic matching %q", file, line, w)
				}
			}
		}
	}
}

// wantLit matches one Go string literal (interpreted or raw) holding a
// want regex.
var wantLit = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// collectWants extracts the want annotations of every fixture file, keyed
// by file and line.
func collectWants(t *testing.T, c *load.Checked) map[string]map[int][]*regexp.Regexp {
	t.Helper()
	out := map[string]map[int][]*regexp.Regexp{}
	for _, f := range c.Files {
		for _, cg := range f.Comments {
			for _, cm := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(cm.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := c.Fset.Position(cm.Pos())
				for _, lit := range wantLit.FindAllString(text, -1) {
					pat, err := strconv.Unquote(lit)
					if err != nil {
						t.Fatalf("%s: malformed want literal %s: %v", pos, lit, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regex %q: %v", pos, pat, err)
					}
					if out[pos.Filename] == nil {
						out[pos.Filename] = map[int][]*regexp.Regexp{}
					}
					out[pos.Filename][pos.Line] = append(out[pos.Filename][pos.Line], re)
				}
			}
		}
	}
	return out
}
