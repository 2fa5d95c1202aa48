package session

import (
	"flag"
	"fmt"
	"regexp"
	"testing"

	"gradoop/internal/benchkit"
	"gradoop/internal/dataflow"
	"gradoop/internal/ldbc"
)

var planNotes = flag.Bool("plan-notes", false, "run TestPlanNotes (make plan-notes)")

// selfTime is the wall-clock annotation of an analyzed plan's line, the one
// part of it that differs between two runs of one plan.
var selfTime = regexp.MustCompile(` self=[^ \]]*`)

// TestPlanNotes is a tool, not a check (make plan-notes): over the generated
// LDBC graph the benchmark runs on (SF 3, seed 2017, 4 partitions, the pinned
// store a session binds, result cache off) it serves each of the benchmark's
// twelve request classes once, traced, and prints its analyzed plan without
// the wall times: the notes - sip, walked in place, looked up in place - and
// act=, yield=, err= and sim= of every operator. Two
// commits that should run the same plans the same way print the same text, so
// a change to how a plan runs is a diff of this output against its parent's
// (copy this file into a checkout of the parent and run the same command
// there).
func TestPlanNotes(t *testing.T) {
	if !*planNotes {
		t.Skip("a tool: run it with make plan-notes")
	}
	gen := ldbc.Generate(dataflow.NewEnv(dataflow.DefaultConfig(1)), ldbc.Config{ScaleFactor: 3, Seed: 2017})
	s := New(gen.Graph, Options{Workers: 4, NoResultCache: true})
	defer s.Close()
	for _, c := range benchkit.RequestClasses(gen) {
		r, err := s.Execute(Request{Query: c.Query, Params: c.Params, Trace: true})
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		fmt.Printf("%s: %d rows\n%s\n", c.Name, r.Count, selfTime.ReplaceAllString(r.Result.AnalyzedPlan(), ""))
	}
}
