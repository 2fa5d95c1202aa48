package epgm_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"gradoop/internal/dataflow"
	"gradoop/internal/epgm"
	"gradoop/internal/ldbc"
)

// labelMajorByMaps is the store's label-major order as NewStore laid it out
// with a label-keyed map for the counts and another for the next slots: two
// map operations an element. It is what the one-lookup counting sort must
// reproduce.
func labelMajorByMaps[T any](d *dataflow.Dataset[T], label func(*T) string) ([]T, []epgm.LabelRange) {
	counts := map[string]int{}
	for p := 0; p < d.Partitions(); p++ {
		part := d.Partition(p)
		for i := range part {
			counts[label(&part[i])]++
		}
	}
	ranges := make([]epgm.LabelRange, 0, len(counts))
	for l := range counts {
		ranges = append(ranges, epgm.LabelRange{Label: l})
	}
	sort.Slice(ranges, func(i, j int) bool { return ranges[i].Label < ranges[j].Label })
	next := make(map[string]int, len(ranges))
	total := 0
	for i := range ranges {
		r := &ranges[i]
		r.Lo, r.Hi = total, total+counts[r.Label]
		next[r.Label] = r.Lo
		total = r.Hi
	}
	out := make([]T, total)
	for p := 0; p < d.Partitions(); p++ {
		part := d.Partition(p)
		for i := range part {
			l := label(&part[i])
			out[next[l]] = part[i]
			next[l]++
		}
	}
	return out, ranges
}

// TestStoreIsLabelMajor: the store's arrays and ranges are the ones the
// two-map counting sort lays out, on the LDBC generator's graphs of SF 3
// (SF 0.1 under -short), seeds 2017 and 2018, and on a graph of no elements.
func TestStoreIsLabelMajor(t *testing.T) {
	sf := 3.0
	if testing.Short() {
		sf = 0.1
	}
	graphs := map[string]*epgm.LogicalGraph{
		"empty": epgm.GraphFromSlices(dataflow.NewEnv(dataflow.DefaultConfig(2)), "", nil, nil),
	}
	for _, seed := range []int64{2017, 2018} {
		d := ldbc.Generate(dataflow.NewEnv(dataflow.DefaultConfig(4)), ldbc.Config{ScaleFactor: sf, Seed: seed})
		graphs[fmt.Sprintf("LDBC SF %g seed %d", sf, seed)] = d.Graph
	}
	for name, g := range graphs {
		s := epgm.NewStore(g)
		vs, vr := labelMajorByMaps(g.Vertices, func(v *epgm.Vertex) string { return v.Label })
		es, er := labelMajorByMaps(g.Edges, func(e *epgm.Edge) string { return e.Label })
		if len(s.Vertices)+len(s.Edges) != len(vs)+len(es) {
			t.Fatalf("%s: %d elements stored, %d given", name, len(s.Vertices)+len(s.Edges), len(vs)+len(es))
		}
		if !reflect.DeepEqual(s.Vertices, vs) || !reflect.DeepEqual(s.VertexRanges, vr) {
			t.Errorf("%s: the vertex array or its ranges differ from the two-map sort's", name)
		}
		if !reflect.DeepEqual(s.Edges, es) || !reflect.DeepEqual(s.EdgeRanges, er) {
			t.Errorf("%s: the edge array or its ranges differ from the two-map sort's", name)
		}
	}
}
