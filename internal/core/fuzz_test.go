package core

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"gradoop/internal/operators"
)

// randomQuery builds a random but well-formed Cypher pattern-matching query
// over the randomGraph schema (labels A/B/C, edge types x/y, properties
// color/rank on vertices, w on edges).
func randomQuery(rng *rand.Rand) string {
	vars := []string{"a", "b", "c", "d"}
	nEdges := 1 + rng.Intn(3)
	used := map[string]bool{}
	labeled := map[string]bool{}
	var parts []string
	labelFor := func(v string) string {
		// Label a variable at most once so constraints never contradict.
		if labeled[v] || rng.Intn(3) != 0 {
			return ""
		}
		labeled[v] = true
		return ":" + []string{"A", "B", "C"}[rng.Intn(3)]
	}
	for i := 0; i < nEdges; i++ {
		src := vars[rng.Intn(len(vars))]
		dst := vars[rng.Intn(len(vars))]
		used[src] = true
		used[dst] = true
		srcLabel := labelFor(src)
		dstLabel := labelFor(dst)
		etype := ""
		if rng.Intn(2) == 0 {
			etype = ":" + []string{"x", "y"}[rng.Intn(2)]
		}
		hops := ""
		if rng.Intn(5) == 0 {
			lo := rng.Intn(2)
			hi := lo + 1 + rng.Intn(2)
			hops = fmt.Sprintf("*%d..%d", lo, hi)
			if etype == "" {
				etype = ":x" // keep var-length expansions bounded
			}
		}
		arrow := fmt.Sprintf("-[e%d%s%s]->", i, etype, hops)
		switch rng.Intn(4) {
		case 0:
			arrow = fmt.Sprintf("<-[e%d%s%s]-", i, etype, hops)
		case 1:
			if hops == "" {
				arrow = fmt.Sprintf("-[e%d%s]-", i, etype)
			}
		}
		parts = append(parts, fmt.Sprintf("(%s%s)%s(%s%s)", src, srcLabel, arrow, dst, dstLabel))
	}

	var preds []string
	usedVars := make([]string, 0, len(used))
	for _, v := range vars {
		if used[v] {
			usedVars = append(usedVars, v)
		}
	}
	pick := func() string { return usedVars[rng.Intn(len(usedVars))] }
	pool := []func() string{
		func() string { return fmt.Sprintf("%s.rank < %d", pick(), rng.Intn(5)) },
		func() string { return fmt.Sprintf("%s.rank >= %d", pick(), rng.Intn(5)) },
		func() string {
			return fmt.Sprintf("%s.color = '%s'", pick(), []string{"red", "green", "blue"}[rng.Intn(3)])
		},
		func() string { return fmt.Sprintf("%s.color <> %s.color", pick(), pick()) },
		func() string { return fmt.Sprintf("%s.rank = %s.rank", pick(), pick()) },
		func() string { return fmt.Sprintf("%s.rank IN [0, 2, 4]", pick()) },
		func() string { return fmt.Sprintf("%s.color STARTS WITH 'r'", pick()) },
		func() string { return fmt.Sprintf("%s.color CONTAINS 'e'", pick()) },
		func() string { return fmt.Sprintf("%s.missing IS NULL", pick()) },
		func() string { return fmt.Sprintf("%s.rank + 1 <= %s.rank * 2", pick(), pick()) },
		func() string { return fmt.Sprintf("NOT %s.rank = %d", pick(), rng.Intn(5)) },
		func() string { return fmt.Sprintf("(%s.rank = 1 OR %s.rank = 3)", pick(), pick()) },
	}
	for i := 0; i < rng.Intn(3); i++ {
		preds = append(preds, pool[rng.Intn(len(pool))]())
	}

	q := "MATCH " + strings.Join(parts, ", ")
	if len(preds) > 0 {
		q += " WHERE " + strings.Join(preds, " AND ")
	}
	return q + " RETURN *"
}

// edgeVar matches the opening of a randomQuery edge and its variable; no
// predicate reads an edge.
var edgeVar = regexp.MustCompile(`\[e\d+`)

// TestRandomQueriesAgainstReference generates random queries and verifies
// the full engine (parser → planner → operators) against the brute-force
// oracle for every morphism combination.
func TestRandomQueriesAgainstReference(t *testing.T) {
	morphs := []Config{
		{Vertex: operators.Homomorphism, Edge: operators.Homomorphism},
		{Vertex: operators.Homomorphism, Edge: operators.Isomorphism},
		{Vertex: operators.Isomorphism, Edge: operators.Isomorphism},
	}
	total := 0
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 1+int(seed)%4, 10, 16)
		for i := 0; i < 12; i++ {
			q := randomQuery(rng)
			cfg := morphs[rng.Intn(len(morphs))]
			t.Run(fmt.Sprintf("seed%d/q%d", seed, i), func(t *testing.T) {
				compareWithReference(t, g, q, cfg)
				// The pattern again with its edges anonymous: RETURN * does
				// not read them, so the rows Execute plans for leave each out
				// once nothing reads it, the morphism check included.
				compareWithReference(t, g, edgeVar.ReplaceAllString(q, "["), cfg)
			})
			total++
		}
	}
	if total != 72 {
		t.Fatalf("expected 72 random queries, ran %d", total)
	}
}
