// Package lint implements cypherlint: project-specific static analyzers
// that machine-check invariants the engine's correctness rests on, the
// compiler cannot see and no type can carry. Analyzers is the one list of
// them (`cypherlint -help` prints it with each rule's Doc); DESIGN.md
// decision 12 says why each is an analyzer and which earlier ones became
// structure instead.
//
// Analyzers run over packages loaded by internal/lint/load; findings on
// lines annotated with `//lint:ignore <analyzer> reason` (on the flagged
// line or the line directly above it, staticcheck-style) are suppressed.
package lint

import (
	"sort"
	"strconv"
	"strings"
	"time"

	"gradoop/internal/lint/analysis"
	"gradoop/internal/lint/load"
)

// Analyzers returns the full cypherlint suite.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		PartitionCaptureAnalyzer,
		CtxPollAnalyzer,
		ObsRegisterAnalyzer,
		LockOrderAnalyzer,
		GoLeakAnalyzer,
		WireSymAnalyzer,
		CloseOnErrAnalyzer,
	}
}

// Stat is one analyzer's aggregate cost and yield over a run.
type Stat struct {
	Analyzer string
	Time     time.Duration
	Findings int
}

// Stats accumulates per-analyzer wall time and finding counts across
// packages. A nil *Stats skips collection, so drivers that don't report
// timing pass nil.
type Stats struct {
	byName map[string]*Stat
}

func (s *Stats) add(name string, d time.Duration, findings int) {
	if s == nil {
		return
	}
	if s.byName == nil {
		s.byName = map[string]*Stat{}
	}
	st := s.byName[name]
	if st == nil {
		st = &Stat{Analyzer: name}
		s.byName[name] = st
	}
	st.Time += d
	st.Findings += findings
}

// Rows returns the per-analyzer stats sorted by descending wall time.
func (s *Stats) Rows() []Stat {
	if s == nil {
		return nil
	}
	out := make([]Stat, 0, len(s.byName))
	for _, st := range s.byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time > out[j].Time
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out
}

// Run executes the given analyzers over one checked package and returns the
// surviving findings in position order. Findings suppressed by an ignore
// directive are dropped. Call-graph summaries cover this one package — the
// go vet unit protocol ships one package's sources at a time, so this is
// the precision floor; whole-module drivers use RunProgram for
// cross-package summaries.
func Run(c *load.Checked, analyzers []*analysis.Analyzer) ([]analysis.Finding, error) {
	store := newSummaryStore()
	store.addPackage(c)
	return runPackage(c, analyzers, store, nil)
}

// RunProgram executes the analyzers over every checked package with
// call-graph summaries spanning all of them, so facts about a function in
// one package (it acquires member.mu; it calls WaitGroup.Done) are visible
// when analyzing its callers in another. stats may be nil. Findings are
// returned in load order, position-sorted within each package.
func RunProgram(pkgs []*load.Checked, analyzers []*analysis.Analyzer, stats *Stats) ([]analysis.Finding, error) {
	store := newSummaryStore()
	for _, c := range pkgs {
		store.addPackage(c)
	}
	var out []analysis.Finding
	for _, c := range pkgs {
		fs, err := runPackage(c, analyzers, store, stats)
		if err != nil {
			return nil, err
		}
		out = append(out, fs...)
	}
	return out, nil
}

// runPackage is the shared driver core: one package, one summary store.
func runPackage(c *load.Checked, analyzers []*analysis.Analyzer, store *summaryStore, stats *Stats) ([]analysis.Finding, error) {
	ignores, audit := collectIgnores(c)
	out := append([]analysis.Finding(nil), audit...)
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      c.Fset,
			Files:     c.Files,
			Pkg:       c.Pkg,
			TypesInfo: c.Info,
			Summary:   store.resolve,
		}
		name := a.Name
		count := 0
		pass.Report = func(d analysis.Diagnostic) {
			pos := c.Fset.Position(d.Pos)
			if ignores.match(pos.Filename, pos.Line, name) {
				return
			}
			count++
			out = append(out, analysis.Finding{Analyzer: name, Pos: pos, Message: d.Message})
		}
		start := time.Now()
		if _, err := a.Run(pass); err != nil {
			return nil, err
		}
		stats.add(name, time.Since(start), count)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

// ignoreKey addresses one suppressed (file, line).
type ignoreKey struct {
	file string
	line int
}

// ignoreSet maps suppressed positions to the analyzer names they suppress.
type ignoreSet map[ignoreKey][]string

func (s ignoreSet) match(file string, line int, analyzer string) bool {
	for _, name := range s[ignoreKey{file, line}] {
		if name == analyzer || name == "all" {
			return true
		}
	}
	return false
}

// knownAnalyzerNames is the registry the ignore audit validates against:
// every analyzer in the suite plus the "all" wildcard. Validating against
// the full registry (not whichever subset the current driver runs) keeps
// single-analyzer analysistest runs from flagging legitimate suppressions
// of other analyzers.
func knownAnalyzerNames() map[string]bool {
	out := map[string]bool{"all": true}
	for _, a := range Analyzers() {
		out[a.Name] = true
	}
	return out
}

// collectIgnores scans the package's comments for lint:ignore directives. A
// directive suppresses the named analyzers (comma-separated, or "all") on
// its own line and on the line immediately below, covering both the
// trailing-comment and line-above placements.
//
// It also audits the directives: a name that matches no registered analyzer
// suppresses nothing — it is a typo'd dead suppression — and comes back as
// a finding under the "lintignore" name. Audit findings are not themselves
// suppressible; fix the name or delete the directive.
func collectIgnores(c *load.Checked) (ignoreSet, []analysis.Finding) {
	out := ignoreSet{}
	var audit []analysis.Finding
	known := knownAnalyzerNames()
	for _, f := range c.Files {
		for _, cg := range f.Comments {
			for _, cm := range cg.List {
				text := strings.TrimPrefix(cm.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "lint:ignore") {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, "lint:ignore"))
				pos := c.Fset.Position(cm.Pos())
				if len(fields) == 0 {
					audit = append(audit, analysis.Finding{
						Analyzer: "lintignore",
						Pos:      pos,
						Message:  "lint:ignore directive names no analyzer",
					})
					continue
				}
				if len(fields) == 1 {
					audit = append(audit, analysis.Finding{
						Analyzer: "lintignore",
						Pos:      pos,
						Message:  "lint:ignore directive has no reason; write `//lint:ignore <analyzer> <reason>`",
					})
				}
				names := strings.Split(fields[0], ",")
				for _, name := range names {
					if !known[name] {
						audit = append(audit, analysis.Finding{
							Analyzer: "lintignore",
							Pos:      pos,
							Message:  "lint:ignore names unknown analyzer " + strconv.Quote(name) + " (dead suppression)",
						})
					}
				}
				for _, line := range []int{pos.Line, pos.Line + 1} {
					key := ignoreKey{pos.Filename, line}
					out[key] = append(out[key], names...)
				}
			}
		}
	}
	return out, audit
}
