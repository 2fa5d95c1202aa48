package core_test

import (
	"strings"
	"testing"

	"gradoop/internal/benchkit"
	"gradoop/internal/core"
	"gradoop/internal/epgm"
	"gradoop/internal/operators"
	"gradoop/internal/trace"
)

// TestSharedNote: EXPLAIN ANALYZE notes "(shared)" on a Cached line only when
// an Alias reads that Cached too. Q3's Post and Comment leaves have one
// consumer each, and their Cached lines say nothing; its hasCreator leaf and
// Q5's knows leaf are read through Aliases, and every Cached line over them is
// noted. No other line is.
func TestSharedNote(t *testing.T) {
	g, common := goldenGraph(4)
	defer core.DropGraphStats(g)
	for _, tc := range []struct {
		q      benchkit.QueryID
		sole   []string // the leaves under a Cached no Alias reads
		shared []string // the leaves under one that an Alias reads
	}{
		{benchkit.Q3, []string{"FilterAndProjectVertices(post:Post", "FilterAndProjectVertices(comment:Comment"},
			[]string{"FilterAndProjectEdges((comment)-[__e1:hasCreator]->(p2)"}},
		{benchkit.Q5, nil, []string{"FilterAndProjectEdges((p1)-[__e0:knows]->(p2)"}},
	} {
		cfg := core.Config{Vertex: operators.Homomorphism, Edge: operators.Isomorphism, Trace: trace.NewCollector(),
			Params: map[string]epgm.PropertyValue{"firstName": epgm.PVString(common)}}
		res, err := core.Execute(g, tc.q.Text(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		plan := res.AnalyzedPlan()
		lines := strings.Split(plan, "\n")
		seen := map[string]int{}
		for i, line := range lines {
			noted := strings.Contains(line, "(shared)")
			cached := strings.HasPrefix(strings.TrimSpace(line), "Cached ")
			if noted && !cached {
				t.Errorf("%s: a line that is no Cached is noted shared: %s", tc.q, line)
			}
			if !cached || i+1 == len(lines) {
				continue
			}
			leaf := strings.TrimSpace(lines[i+1])
			for _, want := range []struct {
				leaves []string
				shared bool
			}{{tc.sole, false}, {tc.shared, true}} {
				for _, l := range want.leaves {
					if strings.HasPrefix(leaf, l) {
						seen[l]++
						if noted != want.shared {
							t.Errorf("%s: the Cached over %s noted shared %v, want %v", tc.q, l, noted, want.shared)
						}
					}
				}
			}
		}
		for _, l := range append(tc.sole, tc.shared...) {
			if seen[l] == 0 {
				t.Errorf("%s: no Cached over %s in\n%s", tc.q, l, plan)
			}
		}
	}
}
