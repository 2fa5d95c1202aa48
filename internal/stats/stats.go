// Package stats computes the pre-computed graph statistics the greedy query
// planner uses for cardinality estimation (§3.2): total vertex and edge
// counts, label distributions, distinct source/target vertex counts overall
// and per edge label, and distinct property-value counts for selectivity
// estimation of property predicates.
package stats

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"

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

// Collect computes the statistics of a logical graph: those of its store.
func Collect(g *epgm.LogicalGraph) *GraphStatistics { return FromStore(epgm.NewStore(g)) }

// FromStore computes statistics in one pass over a store's label ranges. A
// label's count is its range's length; a property's values are counted as
// PropertyValue.String renders them, so int 1 and string "1" are one value.
func FromStore(st *epgm.Store) *GraphStatistics {
	s := &GraphStatistics{VertexCount: int64(len(st.Vertices)), EdgeCount: int64(len(st.Edges)),
		VertexCountByLabel: map[string]int64{}, EdgeCountByLabel: map[string]int64{},
		DistinctSourceIDsByLabel: map[string]int64{}, DistinctTargetIDsByLabel: map[string]int64{}}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the vertices' values are read beside the edges
		defer wg.Done()
		s.DistinctVertexProperties = distinctValues(st.VertexRanges, func(i int) epgm.Properties { return st.Vertices[i].Properties })
	}()
	for _, r := range st.VertexRanges {
		s.VertexCountByLabel[r.Label] = int64(r.Hi - r.Lo)
	}
	// An end maps to the last range it was seen in, counted from 1.
	sources, targets := make(map[epgm.ID]int, len(st.Vertices)), make(map[epgm.ID]int, len(st.Vertices))
	for i, r := range st.EdgeRanges {
		s.EdgeCountByLabel[r.Label] = int64(r.Hi - r.Lo)
		for _, e := range st.Edges[r.Lo:r.Hi] {
			if sources[e.Source] != i+1 {
				sources[e.Source] = i + 1
				s.DistinctSourceIDsByLabel[r.Label]++
			}
			if targets[e.Target] != i+1 {
				targets[e.Target] = i + 1
				s.DistinctTargetIDsByLabel[r.Label]++
			}
		}
	}
	s.DistinctSourceIDs, s.DistinctTargetIDs = int64(len(sources)), int64(len(targets))
	s.DistinctEdgeProperties = distinctValues(st.EdgeRanges, func(i int) epgm.Properties { return st.Edges[i].Properties })
	wg.Wait()
	return s
}

// distinctValues maps PropKey(label, key) to the number of distinct values
// of the key on the label's elements, props(i) being element i's properties,
// and PropKey("", key) to that over all labels, which wins where the two are
// one string: an unlabeled element's key, whose values are among them. A
// string is its own rendering; any other value is rendered into a buffer.
func distinctValues(ranges []epgm.LabelRange, props func(i int) epgm.Properties) map[string]int64 {
	sets := map[[2]string]map[string]struct{}{}
	var buf [32]byte
	for _, r := range ranges {
		for i := r.Lo; i < r.Hi; i++ {
			for _, p := range props(i) {
				set := sets[[2]string{r.Label, p.Key}]
				if set == nil {
					set = map[string]struct{}{}
					sets[[2]string{r.Label, p.Key}] = set
				}
				if p.Value.Type() == epgm.TypeString {
					set[p.Value.Str()] = struct{}{}
					continue
				}
				b := p.Value.AppendString(buf[:0])
				if _, ok := set[string(b)]; !ok {
					set[string(b)] = struct{}{} // a string per distinct value only
				}
			}
		}
	}
	out, all := map[string]int64{}, map[string]map[string]struct{}{}
	for lk, set := range sets { // a key's first set grows by the others once counted
		out[PropKey(lk[0], lk[1])] = int64(len(set))
		if u := all[lk[1]]; u != nil {
			maps.Copy(u, set)
		} else {
			all[lk[1]] = set
		}
	}
	for key, u := range all {
		out[PropKey("", key)] = int64(len(u))
	}
	return out
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
		fmt.Fprintf(&sb, "%s:", name)
		for _, k := range slices.Sorted(maps.Keys(m)) {
			fmt.Fprintf(&sb, " %s=%d", strings.ReplaceAll(k, "\x00", "."), m[k])
		}
		sb.WriteByte('\n')
	}
	writeMap("vertexLabels", s.VertexCountByLabel)
	writeMap("edgeLabels", s.EdgeCountByLabel)
	return sb.String()
}
