// An external test package: the oracle, internal/baseline, imports operators.
package operators_test

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"

	"gradoop/internal/baseline"
	"gradoop/internal/cypher"
	"gradoop/internal/dataflow"
	"gradoop/internal/embedding"
	"gradoop/internal/epgm"
	"gradoop/internal/operators"
	"gradoop/internal/planner"
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

// run evaluates the case's expansion over the graph as access reads it and
// returns its rows in engine order, the sorted binding keys of those rows and
// of the oracle's matches.
func (c matrixCase) run(t *testing.T, access func(*epgm.LogicalGraph) operators.GraphAccess) (rows []embedding.Embedding, got, want []string) {
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
		in = operators.NewFilterAndProjectEdges(qf)
		edges = []*cypher.QueryEdge{qf, qe}
		edgeVars = []string{"f"}
	} else if c.reverse {
		in = operators.NewFilterAndProjectVertices(qb)
	} else {
		in = operators.NewFilterAndProjectVertices(qa)
	}
	op, err := operators.NewExpandEmbeddings(in, qe, c.morph, c.reverse, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows = op.Evaluate(operators.NewRun(access(g), nil)).Collect()
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

func plain(g *epgm.LogicalGraph) operators.GraphAccess { return planner.PlainAccess{Graph: g} }

func indexed(g *epgm.LogicalGraph) operators.GraphAccess {
	return planner.IndexedAccess{Index: epgm.BuildIndex(g)}
}

// TestExpandMatrixIndexed runs the 144 expansions again over the pinned store,
// where they walk its adjacency in place: the oracle's matches, and the rows
// of the bulk iteration over the plain graph byte for byte, as a bag. The
// order is the walk's, depth first from each input row, not the iteration's
// hop by hop.
func TestExpandMatrixIndexed(t *testing.T) {
	for _, c := range matrixCases() {
		rows, got, want := c.run(t, indexed)
		if !slices.Equal(got, want) {
			t.Errorf("%s: walked %d matches, reference %d:\n got %v\nwant %v", c, len(got), len(want), got, want)
			continue
		}
		plainRows, _, _ := c.run(t, plain)
		if w, p := wireBag(rows), wireBag(plainRows); !slices.Equal(w, p) {
			t.Errorf("%s: the walk's rows are not the bulk iteration's bytes", c)
		}
	}
}

// wireBag is rows' wire encodings, sorted.
func wireBag(rows []embedding.Embedding) []string {
	out := make([]string, len(rows))
	for i, e := range rows {
		out[i] = string(e.AppendWire(nil))
	}
	sort.Strings(out)
	return out
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
		rows, got, want := c.run(t, plain)
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
