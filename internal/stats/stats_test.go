package stats

import (
	"strings"
	"testing"

	"gradoop/internal/dataflow"
	"gradoop/internal/epgm"
)

func testGraph(workers int) *epgm.LogicalGraph {
	env := dataflow.NewEnv(dataflow.DefaultConfig(workers))
	var vertices []epgm.Vertex
	mk := func(label, name string) epgm.Vertex {
		v := epgm.Vertex{ID: epgm.NewID(), Label: label,
			Properties: epgm.Properties{}.Set("name", epgm.PVString(name))}
		vertices = append(vertices, v)
		return v
	}
	p1 := mk("Person", "a")
	p2 := mk("Person", "b")
	p3 := mk("Person", "a") // duplicate name value
	t1 := mk("Tag", "x")
	e := func(label string, s, d epgm.Vertex) epgm.Edge {
		return epgm.Edge{ID: epgm.NewID(), Label: label, Source: s.ID, Target: d.ID,
			Properties: epgm.Properties{}.Set("w", epgm.PVInt(1))}
	}
	edges := []epgm.Edge{
		e("knows", p1, p2), e("knows", p1, p3), e("knows", p2, p3),
		e("hasInterest", p1, t1),
	}
	return epgm.GraphFromSlices(env, "G", vertices, edges)
}

func TestCollectCounts(t *testing.T) {
	s := Collect(testGraph(3))
	if s.VertexCount != 4 || s.EdgeCount != 4 {
		t.Fatalf("counts: %d/%d", s.VertexCount, s.EdgeCount)
	}
	if s.VertexCountByLabel["Person"] != 3 || s.VertexCountByLabel["Tag"] != 1 {
		t.Fatalf("labels: %v", s.VertexCountByLabel)
	}
	if s.EdgeCountByLabel["knows"] != 3 || s.EdgeCountByLabel["hasInterest"] != 1 {
		t.Fatalf("edge labels: %v", s.EdgeCountByLabel)
	}
}

func TestCollectDistinctEndpoints(t *testing.T) {
	s := Collect(testGraph(2))
	// Sources: p1 (x3), p2 => 2 distinct overall; knows sources: p1,p2 = 2.
	if s.DistinctSourceIDs != 2 {
		t.Fatalf("distinct sources=%d", s.DistinctSourceIDs)
	}
	if s.DistinctSourceIDsByLabel["knows"] != 2 {
		t.Fatalf("knows sources=%d", s.DistinctSourceIDsByLabel["knows"])
	}
	// Targets: p2, p3, t1 = 3.
	if s.DistinctTargetIDs != 3 {
		t.Fatalf("distinct targets=%d", s.DistinctTargetIDs)
	}
	if s.DistinctTargetIDsByLabel["hasInterest"] != 1 {
		t.Fatalf("hasInterest targets=%d", s.DistinctTargetIDsByLabel["hasInterest"])
	}
}

func TestCollectDistinctProperties(t *testing.T) {
	s := Collect(testGraph(2))
	// Person.name takes values {a, b} => 2 distinct.
	if got := s.DistinctVertexPropertyValues([]string{"Person"}, "name"); got != 2 {
		t.Fatalf("Person.name distinct=%d", got)
	}
	// Across labels: {a, b, x} = 3.
	if got := s.DistinctVertexPropertyValues(nil, "name"); got != 3 {
		t.Fatalf("name distinct=%d", got)
	}
	// Unknown key falls back to the default guess.
	if got := s.DistinctVertexPropertyValues([]string{"Person"}, "zzz"); got != 10 {
		t.Fatalf("fallback=%d", got)
	}
	if got := s.DistinctEdgePropertyValues([]string{"knows"}, "w"); got != 1 {
		t.Fatalf("knows.w distinct=%d", got)
	}
}

func TestCardinalityHelpers(t *testing.T) {
	s := Collect(testGraph(2))
	if s.VertexCardinality(nil) != 4 {
		t.Fatal("all vertices")
	}
	if s.VertexCardinality([]string{"Person", "Tag"}) != 4 {
		t.Fatal("alternation")
	}
	if s.EdgeCardinality([]string{"knows"}) != 3 {
		t.Fatal("knows cardinality")
	}
	if s.EdgeCardinality([]string{"nope"}) != 0 {
		t.Fatal("unknown label")
	}
	// knows: 3 edges / 2 distinct sources = 1.5.
	if got := s.AverageOutDegree([]string{"knows"}); got != 1.5 {
		t.Fatalf("avg out degree=%f", got)
	}
	if got := s.AverageOutDegree([]string{"nope"}); got != 0 {
		t.Fatalf("unknown degree=%f", got)
	}
}

// TestAverageOutDegreeWithoutDistinctSources: statistics that count a type's
// edges but not its distinct sources - element and label counts only - take
// every vertex as a source instead of estimating the degree at 0.
func TestAverageOutDegreeWithoutDistinctSources(t *testing.T) {
	full := Collect(testGraph(2))
	flat := &GraphStatistics{VertexCount: full.VertexCount, EdgeCount: full.EdgeCount,
		VertexCountByLabel: full.VertexCountByLabel, EdgeCountByLabel: full.EdgeCountByLabel}
	for _, tc := range []struct {
		types []string
		want  float64
	}{
		{[]string{"knows"}, 3.0 / 4},          // 3 edges over 4 vertices
		{[]string{"knows", "hasInterest"}, 1}, // 4 edges over 4 vertices
		{nil, 1},                              // every type: 4 edges over 4 vertices
		{[]string{"nope"}, 0},                 // no edges, no degree
	} {
		if got := flat.AverageOutDegree(tc.types); got != tc.want {
			t.Errorf("flat degree of %v = %v, want %v", tc.types, got, tc.want)
		}
	}
	// A counted type beside an uncounted one: the sum is unknown too.
	partial := *full
	partial.DistinctSourceIDsByLabel = map[string]int64{"knows": 2}
	if got := partial.AverageOutDegree([]string{"knows", "hasInterest"}); got != 1 {
		t.Errorf("degree with hasInterest's sources missing = %v, want 1", got)
	}
	if got := full.AverageOutDegree([]string{"knows", "hasInterest"}); got != 4.0/3 {
		t.Errorf("full degree = %v, want 4/3", got)
	}
}

func TestStatsDeterministicAcrossWorkers(t *testing.T) {
	a := Collect(testGraph(1))
	b := Collect(testGraph(8))
	if a.VertexCount != b.VertexCount || a.DistinctSourceIDs != b.DistinctSourceIDs {
		t.Fatal("worker count changed statistics")
	}
	if a.DistinctVertexPropertyValues([]string{"Person"}, "name") != b.DistinctVertexPropertyValues([]string{"Person"}, "name") {
		t.Fatal("distinct props differ")
	}
}

func TestStatsString(t *testing.T) {
	s := Collect(testGraph(1))
	out := s.String()
	for _, frag := range []string{"vertices=4", "Person=3", "knows=3"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("missing %q in %q", frag, out)
		}
	}
}
