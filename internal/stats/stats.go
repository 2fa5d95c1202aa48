// Package stats computes the pre-computed graph statistics the greedy query
// planner uses for cardinality estimation (§3.2): total vertex and edge
// counts, label distributions, distinct source/target vertex counts overall
// and per edge label, and distinct property-value counts for selectivity
// estimation of property predicates.
package stats

import (
	"fmt"
	"sort"
	"strings"

	"gradoop/internal/dataflow"
	"gradoop/internal/epgm"
)

// GraphStatistics summarizes a data graph for the planner.
type GraphStatistics struct {
	VertexCount int64
	EdgeCount   int64

	VertexCountByLabel map[string]int64
	EdgeCountByLabel   map[string]int64

	DistinctSourceIDs int64
	DistinctTargetIDs int64

	DistinctSourceIDsByLabel map[string]int64
	DistinctTargetIDsByLabel map[string]int64

	// DistinctVertexProperties maps "label\x00key" to the number of distinct
	// values that property takes on vertices of that label; the empty label
	// aggregates across labels. Used to estimate equality selectivity.
	DistinctVertexProperties map[string]int64
	// DistinctEdgeProperties is the edge-side analogue.
	DistinctEdgeProperties map[string]int64
}

// PropKey builds the lookup key of the distinct-property tables.
func PropKey(label, key string) string { return label + "\x00" + key }

// Collect computes statistics with dataflow aggregations over the graph.
func Collect(g *epgm.LogicalGraph) *GraphStatistics {
	s := &GraphStatistics{
		VertexCountByLabel:       map[string]int64{},
		EdgeCountByLabel:         map[string]int64{},
		DistinctSourceIDsByLabel: map[string]int64{},
		DistinctTargetIDsByLabel: map[string]int64{},
		DistinctVertexProperties: map[string]int64{},
		DistinctEdgeProperties:   map[string]int64{},
	}

	s.VertexCount = g.VertexCount()
	s.EdgeCount = g.EdgeCount()

	for _, kv := range dataflow.CountByKey(g.Vertices, func(v epgm.Vertex) string { return v.Label }).Collect() {
		s.VertexCountByLabel[kv.Key] = kv.Value
	}
	for _, kv := range dataflow.CountByKey(g.Edges, func(e epgm.Edge) string { return e.Label }).Collect() {
		s.EdgeCountByLabel[kv.Key] = kv.Value
	}

	s.DistinctSourceIDs = dataflow.Distinct(dataflow.Map(g.Edges, func(e epgm.Edge) epgm.ID { return e.Source })).Count()
	s.DistinctTargetIDs = dataflow.Distinct(dataflow.Map(g.Edges, func(e epgm.Edge) epgm.ID { return e.Target })).Count()

	type labelID struct {
		Label string
		ID    epgm.ID
	}
	srcByLabel := dataflow.Distinct(dataflow.Map(g.Edges, func(e epgm.Edge) labelID {
		return labelID{Label: e.Label, ID: e.Source}
	}))
	for _, kv := range dataflow.CountByKey(srcByLabel, func(l labelID) string { return l.Label }).Collect() {
		s.DistinctSourceIDsByLabel[kv.Key] = kv.Value
	}
	tgtByLabel := dataflow.Distinct(dataflow.Map(g.Edges, func(e epgm.Edge) labelID {
		return labelID{Label: e.Label, ID: e.Target}
	}))
	for _, kv := range dataflow.CountByKey(tgtByLabel, func(l labelID) string { return l.Label }).Collect() {
		s.DistinctTargetIDsByLabel[kv.Key] = kv.Value
	}

	type labelKeyValue struct {
		LabelKey string
		Value    string
	}
	vertexProps := dataflow.FlatMap(g.Vertices, func(v epgm.Vertex, emit func(labelKeyValue)) {
		for _, p := range v.Properties {
			emit(labelKeyValue{LabelKey: PropKey(v.Label, p.Key), Value: p.Value.String()})
			emit(labelKeyValue{LabelKey: PropKey("", p.Key), Value: p.Value.String()})
		}
	})
	for _, kv := range dataflow.CountByKey(dataflow.Distinct(vertexProps), func(l labelKeyValue) string { return l.LabelKey }).Collect() {
		s.DistinctVertexProperties[kv.Key] = kv.Value
	}
	edgeProps := dataflow.FlatMap(g.Edges, func(e epgm.Edge, emit func(labelKeyValue)) {
		for _, p := range e.Properties {
			emit(labelKeyValue{LabelKey: PropKey(e.Label, p.Key), Value: p.Value.String()})
			emit(labelKeyValue{LabelKey: PropKey("", p.Key), Value: p.Value.String()})
		}
	})
	for _, kv := range dataflow.CountByKey(dataflow.Distinct(edgeProps), func(l labelKeyValue) string { return l.LabelKey }).Collect() {
		s.DistinctEdgeProperties[kv.Key] = kv.Value
	}
	return s
}

// VertexCardinality estimates the number of vertices matching a label
// alternation (empty = all labels).
func (s *GraphStatistics) VertexCardinality(labels []string) int64 {
	if len(labels) == 0 {
		return s.VertexCount
	}
	var n int64
	for _, l := range labels {
		n += s.VertexCountByLabel[l]
	}
	return n
}

// EdgeCardinality estimates the number of edges matching a type alternation.
func (s *GraphStatistics) EdgeCardinality(types []string) int64 {
	if len(types) == 0 {
		return s.EdgeCount
	}
	var n int64
	for _, t := range types {
		n += s.EdgeCountByLabel[t]
	}
	return n
}

// AverageOutDegree estimates the mean out-degree restricted to edges of the
// given types — the expansion factor of one hop of a variable length path.
// Statistics that know a type's edges but not its distinct sources take every
// vertex as a source, the least degree those edges allow.
func (s *GraphStatistics) AverageOutDegree(types []string) float64 {
	edges := s.EdgeCardinality(types)
	if edges == 0 {
		return 0
	}
	var sources int64
	if len(types) == 0 {
		sources = s.DistinctSourceIDs
	} else {
		for _, t := range types {
			n := s.DistinctSourceIDsByLabel[t]
			if n == 0 && s.EdgeCountByLabel[t] > 0 {
				sources = 0 // not counted: every vertex, below
				break
			}
			sources += n
		}
	}
	if sources == 0 {
		sources = s.VertexCount
	}
	if sources == 0 {
		return 0
	}
	return float64(edges) / float64(sources)
}

// DistinctVertexPropertyValues returns the distinct value count for a
// property key on vertices of the given labels, falling back to the
// cross-label aggregate and then to a default guess.
func (s *GraphStatistics) DistinctVertexPropertyValues(labels []string, key string) int64 {
	var n int64
	for _, l := range labels {
		n += s.DistinctVertexProperties[PropKey(l, key)]
	}
	if n == 0 {
		n = s.DistinctVertexProperties[PropKey("", key)]
	}
	if n == 0 {
		n = 10 // schema-free fallback
	}
	return n
}

// DistinctEdgePropertyValues is the edge-side analogue of
// DistinctVertexPropertyValues.
func (s *GraphStatistics) DistinctEdgePropertyValues(types []string, key string) int64 {
	var n int64
	for _, t := range types {
		n += s.DistinctEdgeProperties[PropKey(t, key)]
	}
	if n == 0 {
		n = s.DistinctEdgeProperties[PropKey("", key)]
	}
	if n == 0 {
		n = 10
	}
	return n
}

// String renders the statistics in a stable, human-readable layout.
func (s *GraphStatistics) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "vertices=%d edges=%d\n", s.VertexCount, s.EdgeCount)
	writeMap := func(name string, m map[string]int64) {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&sb, "%s:", name)
		for _, k := range keys {
			fmt.Fprintf(&sb, " %s=%d", strings.ReplaceAll(k, "\x00", "."), m[k])
		}
		sb.WriteByte('\n')
	}
	writeMap("vertexLabels", s.VertexCountByLabel)
	writeMap("edgeLabels", s.EdgeCountByLabel)
	return sb.String()
}
