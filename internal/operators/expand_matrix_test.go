// An external test package: the oracle, internal/baseline, imports operators.
package operators_test

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	_ "unsafe" // go:linkname, below

	"gradoop/internal/baseline"
	"gradoop/internal/cypher"
	"gradoop/internal/dataflow"
	"gradoop/internal/embedding"
	"gradoop/internal/epgm"
	"gradoop/internal/operators"
)

// matrixGraph is a small knows graph with everything a path can trip over:
// a ring with chords, a two-cycle, a self-loop, a parallel edge and a tail
// that runs out, plus likes edges - one of them a self-loop - that bind both
// endpoints for the expansions that close a cycle. Ids are constants, so
// every shuffle destination and with it the row order is the same in any
// process.
func matrixGraph(workers int) *epgm.LogicalGraph {
	vs := make([]epgm.Vertex, 9)
	for i := range vs {
		vs[i] = epgm.Vertex{ID: epgm.ID(1 + i), Label: "Person",
			Properties: epgm.Properties{}.Set("n", epgm.PVInt(int64(1+i)))} // n is the id: TestOuterMatrix filters on it
	}
	var es []epgm.Edge
	edge := func(label string, s, t int) {
		es = append(es, epgm.Edge{ID: epgm.ID(100 + len(es)), Label: label, Source: epgm.ID(s), Target: epgm.ID(t)})
	}
	for _, st := range [][2]int{{1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 1}, {1, 3}, {3, 1}, {2, 5}, {4, 4}, {1, 2}, {6, 7}, {7, 8}} {
		edge("knows", st[0], st[1])
	}
	for _, st := range [][2]int{{1, 3}, {2, 2}, {3, 1}, {5, 2}, {1, 2}, {6, 8}, {9, 1}} {
		edge("likes", st[0], st[1])
	}
	return epgm.GraphFromSlices(dataflow.NewEnv(dataflow.DefaultConfig(workers)), "", vs, es)
}

type matrixCase struct {
	reverse, closing, undirected bool
	minHops, workers             int
	morph                        operators.Morphism
}

func (c matrixCase) String() string {
	dir, end, und := "forward", "open", "directed"
	if c.reverse {
		dir = "reverse"
	}
	if c.closing {
		end = "closing"
	}
	if c.undirected {
		und = "undirected"
	}
	return fmt.Sprintf("%s/min%d/%s/%s/%s-%s/%dp", dir, c.minHops, end, und, c.morph.Vertex, c.morph.Edge, c.workers)
}

func matrixCases() []matrixCase {
	morphs := []operators.Morphism{
		{Vertex: operators.Homomorphism, Edge: operators.Homomorphism},
		{Vertex: operators.Homomorphism, Edge: operators.Isomorphism},
		{Vertex: operators.Isomorphism, Edge: operators.Isomorphism},
	}
	var cases []matrixCase
	for _, reverse := range []bool{false, true} {
		for _, minHops := range []int{0, 1, 2} {
			for _, closing := range []bool{false, true} {
				for _, undirected := range []bool{false, true} {
					for _, morph := range morphs {
						for _, workers := range []int{1, 4} {
							cases = append(cases, matrixCase{reverse: reverse, closing: closing, undirected: undirected,
								minHops: minHops, workers: workers, morph: morph})
						}
					}
				}
			}
		}
	}
	return cases
}

const matrixMaxHops = 3

// run evaluates the case's expansion and returns its rows in engine order,
// the sorted binding keys of those rows and of the oracle's matches.
func (c matrixCase) run(t *testing.T) (rows []embedding.Embedding, got, want []string) {
	t.Helper()
	g := matrixGraph(c.workers)
	qa, qb := &cypher.QueryVertex{Var: "a"}, &cypher.QueryVertex{Var: "b"}
	qe := &cypher.QueryEdge{Var: "e", Types: []string{"knows"}, Source: "a", Target: "b",
		Undirected: c.undirected, MinHops: c.minHops, MaxHops: matrixMaxHops}
	edges := []*cypher.QueryEdge{qe}
	edgeVars := []string(nil)

	var in operators.Operator
	if c.closing {
		qf := &cypher.QueryEdge{Var: "f", Types: []string{"likes"}, Source: "a", Target: "b", MinHops: 1, MaxHops: 1}
		in = operators.NewFilterAndProjectEdges(epgm.PlainScan(g.Edges), qf)
		edges = []*cypher.QueryEdge{qf, qe}
		edgeVars = []string{"f"}
	} else if c.reverse {
		in = operators.NewFilterAndProjectVertices(epgm.PlainScan(g.Vertices), qb)
	} else {
		in = operators.NewFilterAndProjectVertices(epgm.PlainScan(g.Vertices), qa)
	}
	op, err := operators.NewExpandEmbeddings(in, g.Edges, qe, c.morph, c.reverse)
	if err != nil {
		t.Fatal(err)
	}
	rows = op.Evaluate().Collect()
	if err := g.Env().Err(); err != nil {
		t.Fatal(err)
	}

	vertexVars, pathVars := []string{"a", "b"}, []string{"e"}
	meta := op.Meta()
	for _, e := range rows {
		b := baseline.Binding{Vertices: map[string]epgm.ID{}, Edges: map[string]epgm.ID{}, Paths: map[string][]epgm.ID{}}
		for col := 0; col < meta.Columns(); col++ {
			switch meta.Kind(col) {
			case embedding.VertexEntry:
				b.Vertices[meta.Var(col)] = e.ID(col)
			case embedding.EdgeEntry:
				b.Edges[meta.Var(col)] = e.ID(col)
			case embedding.PathEntry:
				b.Paths[meta.Var(col)] = e.Path(col)
			}
		}
		got = append(got, b.Key(vertexVars, edgeVars, pathVars))
	}
	qg := cypher.AssembleQueryGraph([]*cypher.QueryVertex{qa, qb}, edges, nil, cypher.ReturnClause{})
	for _, b := range baseline.NewReference(g).Match(qg, c.morph) {
		want = append(want, b.Key(vertexVars, edgeVars, pathVars))
	}
	sort.Strings(got)
	sort.Strings(want)
	return rows, got, want
}

// TestExpandMatrix holds ExpandEmbeddings to the brute-force oracle over
// every combination of direction, lower bound, open or bound far end, edge
// orientation, morphism semantics and partition count, and its rows - bytes
// and order - to what the per-hop-join expansion before the build-once
// rewrite produced (testdata/expand_matrix.golden, recorded at that commit).
func TestExpandMatrix(t *testing.T) { checkExpandMatrix(t) }

// presizeCeiling is dataflow's: the most rows a probe's output is allocated
// at on the strength of its count. It has no setter - it is a constant to
// everything but two tests - so this test reaches it by name.
//
//go:linkname presizeCeiling gradoop/internal/dataflow.presizeCeiling
var presizeCeiling int

// TestExpandMatrixWithLoweredCeiling: the same 144 expansions with every
// hop's probe counted only up to 1 row and up to 7 - cut off and grown from
// there, or counted as an upper bound of which hopAllowed rejects a part -
// are still the oracle's matches and the golden file's bytes and order.
func TestExpandMatrixWithLoweredCeiling(t *testing.T) {
	if presizeCeiling != 1<<18 {
		t.Fatalf("presizeCeiling reads %d: the name no longer links to dataflow's variable", presizeCeiling)
	}
	defer func(old int) { presizeCeiling = old }(presizeCeiling)
	for _, ceiling := range []int{1, 7} {
		presizeCeiling = ceiling
		t.Run(fmt.Sprint("ceiling=", ceiling), checkExpandMatrix)
	}
}

func checkExpandMatrix(t *testing.T) {
	golden := map[string]string{}
	f, err := os.Open("testdata/expand_matrix.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for sc := bufio.NewScanner(f); sc.Scan(); {
		name, rest, _ := strings.Cut(sc.Text(), " ")
		golden[name] = rest
	}
	if len(golden) != len(matrixCases()) {
		t.Errorf("golden file has %d cases, the matrix %d", len(golden), len(matrixCases()))
	}

	nonEmpty := 0
	var table strings.Builder // what the golden file would read if recorded now
	for _, c := range matrixCases() {
		rows, got, want := c.run(t)
		if len(got) != len(want) {
			t.Errorf("%s: engine found %d matches, reference %d", c, len(got), len(want))
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: binding mismatch at %d:\n got %s\nwant %s", c, i, got[i], want[i])
				break
			}
		}
		if len(rows) > 0 {
			nonEmpty++
		}
		h := sha256.New()
		var buf []byte
		for _, e := range rows {
			buf = e.AppendWire(buf[:0])
			h.Write(buf)
		}
		observed := fmt.Sprintf("%d %x", len(rows), h.Sum(nil)[:8])
		fmt.Fprintf(&table, "%s %s\n", c, observed)
		if observed != golden[c.String()] {
			t.Errorf("%s: rows %s, recorded %s", c, observed, golden[c.String()])
		}
	}
	if t.Failed() {
		t.Logf("observed:\n%s", table.String())
	}
	if nonEmpty < len(matrixCases())*3/4 {
		t.Fatalf("only %d of %d cases match anything: the graph does not exercise the matrix", nonEmpty, len(matrixCases()))
	}
}
