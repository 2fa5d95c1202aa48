package core_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"gradoop/internal/benchkit"
	"gradoop/internal/core"
	"gradoop/internal/dataflow"
	"gradoop/internal/epgm"
	"gradoop/internal/ldbc"
	"gradoop/internal/operators"
	"gradoop/internal/planner"
	"gradoop/internal/stats"
	"gradoop/internal/trace"
)

// sharedPlanQueries are the plan shapes a run could write if any could: a
// Cached leaf behind Aliases (Q5), a join that probes a leaf in place (Q1),
// a variable-length path (Q2), an OPTIONAL MATCH whose group predicate and a
// FilterEmbeddings above it read the parameter, an exists(), and a join that
// hands its target a key set the parameter decides.
var sharedPlanQueries = []string{
	benchkit.Q1.Text(),
	benchkit.Q2.Text(),
	benchkit.Q5.Text(),
	`MATCH (p1:Person)-[:knows]->(p2:Person), (p2)-[:knows]->(p3:Person), (p1)-[:knows]->(p3)
	 WHERE p3.firstName <> $firstName RETURN p1.lastName, p2.lastName, p3.lastName`,
	`MATCH (p:Person)-[:knows]->(q:Person)
	 WHERE p.firstName = $firstName AND p.lastName + $firstName <> q.lastName
	 OPTIONAL MATCH (q)-[:studyAt]->(u:University) WHERE u.name <> $firstName
	 RETURN p.lastName, q.lastName, u.name`,
	`MATCH (p:Person) WHERE p.firstName = $firstName AND exists((p)-[:hasInterest]->(:Tag))
	 RETURN p.lastName`,
}

// TestSharedPlanIsReadOnly: a Prepared's operator tree is one description
// that every run shares, so eight goroutines running the same Prepareds at
// once - under -race - each on an Env of its own over the pinned store and
// with a binding of its own, get the rows a run alone gets for that binding,
// in its order: no run sees another's key set. The serial runs also say that the plans have the shapes
// sharedPlanQueries names.
func TestSharedPlanIsReadOnly(t *testing.T) {
	d := ldbc.Generate(dataflow.NewEnv(dataflow.DefaultConfig(1)), ldbc.Config{ScaleFactor: 0.02, Seed: 4})
	common, medium, rare := d.FirstNamesBySelectivity()
	names := []string{common, medium, rare}
	store, st := epgm.NewStore(d.Graph), stats.Collect(d.Graph)
	base := core.Config{Vertex: operators.Homomorphism, Edge: operators.Isomorphism, Stats: st}
	preps := make([]*core.Prepared, len(sharedPlanQueries))
	for i, q := range sharedPlanQueries {
		var err error
		if preps[i], err = core.PrepareWith(st, q, base); err != nil {
			t.Fatal(err)
		}
	}
	// run executes every query for one first name, each on an Env of its own,
	// traced, and returns the rows and the analyzed plans.
	run := func(name string) ([]string, string) {
		var rows []string
		var seen strings.Builder
		for i, prep := range preps {
			idx := store.Index(dataflow.NewEnv(dataflow.DefaultConfig(4)))
			cfg := base
			cfg.Params = map[string]epgm.PropertyValue{"firstName": epgm.PVString(name)}
			cfg.Access = planner.IndexedAccess{Index: idx}
			cfg.Trace = trace.NewCollector()
			res, err := prep.Execute(idx.ToLogicalGraph(), cfg)
			if err != nil {
				t.Errorf("query %d, %s: %v", i, name, err)
				return nil, ""
			}
			out := fmt.Sprintf("query %d: %d rows", i, res.Count())
			for _, row := range res.Rows() {
				out += "\n" + row.String()
			}
			rows = append(rows, out)
			seen.WriteString(res.AnalyzedPlan())
		}
		return rows, seen.String()
	}

	want := map[string][]string{}
	var plans string
	for _, name := range names {
		var analyzed string
		want[name], analyzed = run(name)
		for _, rows := range want[name] {
			if !strings.Contains(rows, "\n") {
				t.Fatalf("for %q %s: a query that matches nothing says nothing", name, rows)
			}
		}
		plans += analyzed
	}
	for _, shape := range []string{"Alias", "(shared)", "probed in place", "ExpandEmbeddings", "OptionalJoinEmbeddings", "SemiJoinEmbeddings", "FilterEmbeddings", "sip dropped="} {
		if !strings.Contains(plans, shape) {
			t.Fatalf("no plan has run %s:\n%s", shape, plans)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		name := names[g%len(names)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, _ := run(name)
			for i := range got {
				if got[i] != want[name][i] {
					t.Errorf("goroutine %d, %s: rows differ from the run alone:\n%s\nwant\n%s", g, name, got[i], want[name][i])
				}
			}
		}()
	}
	wg.Wait()
}
