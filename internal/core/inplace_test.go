package core_test

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"gradoop/internal/benchkit"
	"gradoop/internal/core"
	"gradoop/internal/dataflow"
	"gradoop/internal/epgm"
	"gradoop/internal/ldbc"
	"gradoop/internal/operators"
	"gradoop/internal/planner"
	"gradoop/internal/trace"
)

// repartitioned copies g onto an environment of the given partition count,
// ids unchanged.
func repartitioned(g *epgm.LogicalGraph, workers int) *epgm.LogicalGraph {
	return epgm.GraphFromSlices(dataflow.NewEnv(dataflow.DefaultConfig(workers)), "", g.Vertices.Collect(), g.Edges.Collect())
}

// lookedUp says, for every join of the executed plan that looked a vertex
// leaf up, which leaf - by its variable - and on which side of the merge it
// was: "b:R,a:L", in plan order.
func lookedUp(res *core.Result) string {
	var sides []string
	for _, n := range res.Plan.Nodes() {
		j, ok := n.Op.(*operators.JoinEmbeddings)
		if !ok {
			continue
		}
		if st, ok := res.Trace.Op(j); !ok || !strings.HasPrefix(st.Note, "looked up in place") {
			continue
		}
		// The right input is read in place if it can be (JoinEmbeddings.walked).
		leaf, ok := operators.Unwrap(j.Right).(*operators.FilterAndProjectVertices)
		side := "R"
		if !ok {
			leaf, side = operators.Unwrap(j.Left).(*operators.FilterAndProjectVertices), "L"
		}
		sides = append(sides, leaf.Vertex.Var+":"+side)
	}
	return strings.Join(sides, ",")
}

// inplaceGraph is a small graph for the in-place matrix: three vertex labels,
// two edge types, a loop, a parallel edge, a two-cycle and vertices nothing
// points at. Ids are constants, so the recorded hashes hold in any process.
// The vertices of extra are added after the others.
func inplaceGraph(workers int, extra ...epgm.Vertex) *epgm.LogicalGraph {
	colors := []string{"red", "green", "blue"}
	var vs []epgm.Vertex
	for i, label := range []string{"A", "A", "A", "A", "A", "A", "B", "B", "B", "B", "C", "C", "C"} {
		vs = append(vs, epgm.Vertex{ID: epgm.ID(1 + i), Label: label, Properties: epgm.Properties{}.
			Set("n", epgm.PVInt(int64(1+i))).Set("color", epgm.PVString(colors[i%3]))})
	}
	var es []epgm.Edge
	edge := func(label string, s, t int) {
		es = append(es, epgm.Edge{ID: epgm.ID(100 + len(es)), Label: label, Source: epgm.ID(s), Target: epgm.ID(t),
			Properties: epgm.Properties{}.Set("w", epgm.PVInt(int64(len(es)%3)))})
	}
	for _, st := range [][2]int{{1, 7}, {1, 8}, {1, 7}, {2, 7}, {2, 9}, {3, 10}, {1, 2}, {2, 1}, {1, 1}, {2, 3}, {3, 4}, {1, 11}, {2, 12}, {4, 5}, {5, 4}, {7, 11}} {
		edge("x", st[0], st[1])
	}
	for _, st := range [][2]int{{7, 1}, {8, 1}, {9, 2}, {7, 2}, {10, 6}, {2, 2}, {1, 3}, {3, 1}, {11, 1}, {12, 3}, {2, 7}} {
		edge("y", st[0], st[1])
	}
	return epgm.GraphFromSlices(dataflow.NewEnv(dataflow.DefaultConfig(workers)), "", append(vs, extra...), es)
}

// inplaceCases are the shapes a join that reads a leaf in place has to get
// right, as Cypher text. The comment says what the join that matters there
// does; which vertex leaves end up looked up, and on which side of the merge,
// is recorded in the golden file.
var inplaceCases = []struct{ name, query string }{
	// An edge leaf keyed by its source, then a vertex leaf.
	{"edge-by-source", `MATCH (a:A)-[e:x]->(b:B) WHERE a.n = 1 RETURN *`},
	// An edge leaf keyed by its target.
	{"edge-by-target", `MATCH (b:B)<-[e:x]-(a:A) WHERE b.n = 7 RETURN *`},
	// An edge leaf keyed by both ends: f closes the cycle a-b-a.
	{"edge-by-both", `MATCH (a:A)-[e:x]->(b:B), (b)-[f:y]->(a) WHERE a.n < 3 RETURN *`},
	// Vertex isomorphism decides between a leaf's row and the small side's.
	{"vertex-on-vertex", `MATCH (a:A)-[e:x]->(b:A) WHERE a.n < 3 RETURN *`},
	// Edge isomorphism decides: f, of any type, may be the edge e is.
	{"edge-on-edge", `MATCH (a:A)-[e:x]->(b:B), (a)-[f]->(c:B) WHERE a.n = 1 RETURN *`},
	// The leaves read in place have predicates of their own.
	{"leaf-predicates", `MATCH (a:A)-[e:x]->(b:B) WHERE a.n < 3 AND e.w > 0 AND b.color = 'red' RETURN *`},
	// A two-label vertex leaf and a two-type edge leaf.
	{"two-labels", `MATCH (a:A)-[e:x|y]->(b:B|C) WHERE a.n < 3 RETURN *`},
	// An unlabeled leaf reads the whole array.
	{"no-label", `MATCH (a:A)-[e]->(b) WHERE a.n = 2 RETURN *`},
	// Nothing to look up.
	{"empty-small-side", `MATCH (a:A)-[e:x]->(b:B) WHERE a.n = 99 RETURN *`},
	// Several rows look one vertex up.
	{"shared-keys", `MATCH (c:B)-[f:y]->(a:A), (a)-[e:x]->(b:B) WHERE c.n < 9 RETURN *`},
	// An undirected edge leaf makes two rows of an edge and is scanned.
	{"undirected-edge", `MATCH (a:A)-[e:x]-(b) WHERE a.n = 1 RETURN *`},
	// A loop edge leaf has two columns and is scanned.
	{"loop-edge", `MATCH (a:A)-[e:x]->(a) WHERE a.n = 1 RETURN *`},
	// e and f, b and c are one leaf behind aliases: scanned once for both.
	{"shared-leaf", `MATCH (a:A)-[e:x]->(b:A), (b)-[f:x]->(c:A) WHERE a.n = 1 RETURN *`},
	// No predicate anywhere.
	{"no-predicate", `MATCH (a:A)-[e:x]->(b:B) RETURN *`},
	// The vertex leaf is the right input of the join that looks it up.
	{"vertex-on-right", `MATCH (a:A)<-[e:y]-(b) WHERE a.n = 1 RETURN *`},
}

var inplaceMorphs = []operators.Morphism{
	{Vertex: operators.Homomorphism, Edge: operators.Homomorphism},
	{Vertex: operators.Homomorphism, Edge: operators.Isomorphism},
	{Vertex: operators.Isomorphism, Edge: operators.Isomorphism},
}

// TestLookupIsInvisible: whether a join reads a leaf where the store holds it
// - walks an edge leaf, looks a vertex leaf up - or hashes it with the other
// input decides nothing about the result. Over an index at 1, 4 and 16
// partitions, the matrix above is held to testdata/inplace_matrix.golden: per
// case its rows, and the vertex leaves looked up, which is what says that a
// vertex leaf on either side of the merge, a two-label leaf and an empty other
// input took the path. Over the matrix on a graph that gives ids twice, the
// paper's Q1-Q6 at three selectivities and 72 random queries, the rows over
// the index are the rows over the plain graph, where every join hashes, and
// some joins look a leaf up.
func TestLookupIsInvisible(t *testing.T) {
	partitions := []int{1, 4, 16}
	t.Run("matrix", func(t *testing.T) { checkInplaceMatrix(t, partitions) })
	t.Run("paper", func(t *testing.T) {
		d := ldbc.Generate(dataflow.NewEnv(dataflow.DefaultConfig(1)), ldbc.Config{ScaleFactor: 0.02, Seed: 4})
		common, medium, rare := d.FirstNamesBySelectivity()
		looked := 0
		for _, p := range partitions {
			g := repartitioned(d.Graph, p)
			for _, q := range benchkit.AllQueries {
				names := []string{""}
				if q.Operational() {
					names = []string{common, medium, rare}
				}
				for _, name := range names {
					cfg := core.Config{Vertex: operators.Homomorphism, Edge: operators.Isomorphism}
					if name != "" {
						cfg.Params = map[string]epgm.PropertyValue{"firstName": epgm.PVString(name)}
					}
					looked += lookupsAgainstPlain(t, g, q.Text(), cfg)
				}
			}
		}
		if looked == 0 {
			t.Error("no join of the paper's queries looked a leaf up")
		}
	})
	t.Run("repeated-ids", func(t *testing.T) {
		// An input may give two vertices one id - the readers do not reject
		// it - and a join over the plain graph matches both: the matrix graph
		// with a second vertex 2 of label A, a second vertex 7 of label B and
		// one of label C, and a second vertex 11 of label A.
		twice := []epgm.Vertex{
			{ID: 2, Label: "A", Properties: epgm.Properties{}.Set("n", epgm.PVInt(20)).Set("color", epgm.PVString("red"))},
			{ID: 7, Label: "B", Properties: epgm.Properties{}.Set("n", epgm.PVInt(70)).Set("color", epgm.PVString("red"))},
			{ID: 7, Label: "C", Properties: epgm.Properties{}.Set("n", epgm.PVInt(71)).Set("color", epgm.PVString("blue"))},
			{ID: 11, Label: "A", Properties: epgm.Properties{}.Set("n", epgm.PVInt(1)).Set("color", epgm.PVString("green"))},
		}
		looked := 0
		for _, c := range inplaceCases {
			for _, morph := range inplaceMorphs {
				for _, p := range []int{1, 4} {
					looked += lookupsAgainstPlain(t, inplaceGraph(p, twice...), c.query, core.Config{Vertex: morph.Vertex, Edge: morph.Edge})
				}
			}
		}
		if looked == 0 {
			t.Error("no join of the matrix looked a leaf up")
		}
	})
	t.Run("random", func(t *testing.T) {
		looked := 0
		for seed := int64(0); seed < 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			base := core.RandomGraph(rng, 1, 10, 16)
			for i := 0; i < 12; i++ {
				q := core.RandomQuery(rng)
				morph := inplaceMorphs[rng.Intn(len(inplaceMorphs))]
				for _, p := range partitions {
					looked += lookupsAgainstPlain(t, repartitioned(base, p), q, core.Config{Vertex: morph.Vertex, Edge: morph.Edge})
				}
			}
		}
		if looked == 0 {
			t.Error("no join of the random queries looked a leaf up")
		}
	})
}

// lookupsAgainstPlain executes q over an index of g and over g itself, fails
// the test if their rows differ, and counts the joins that looked a vertex
// leaf up.
func lookupsAgainstPlain(t *testing.T, g *epgm.LogicalGraph, q string, cfg core.Config) int {
	t.Helper()
	plain, err := core.Execute(g, q, cfg)
	if err != nil {
		t.Fatalf("%q at %d partitions: %v", q, g.Env().Workers(), err)
	}
	cfg.Access = planner.IndexedAccess{Index: epgm.BuildIndex(g)}
	cfg.Trace = trace.NewCollector()
	res, err := core.Execute(g, q, cfg)
	if err != nil {
		t.Fatalf("%q at %d partitions over the index: %v", q, g.Env().Workers(), err)
	}
	// The table, not the ids the rows carry: over the index a row carries
	// the id of a vertex whose properties the result reads from the store.
	if got, want := tableRows(res), tableRows(plain); !slices.Equal(got, want) {
		t.Errorf("%q at %d partitions: %d rows over the index, %d over the plain graph\n%s", q, g.Env().Workers(), len(got), len(want), res.AnalyzedPlan())
	}
	if sides := lookedUp(res); sides != "" {
		return strings.Count(sides, ",") + 1
	}
	return 0
}

// tableRows is the result's table, each row rendered, sorted.
func tableRows(res *core.Result) []string {
	var rows []string
	for _, row := range res.Rows() {
		rows = append(rows, row.String())
	}
	slices.Sort(rows)
	return rows
}

func checkInplaceMatrix(t *testing.T, partitions []int) {
	golden := map[string]string{}
	f, err := os.Open("testdata/inplace_matrix.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for sc := bufio.NewScanner(f); sc.Scan(); {
		name, rest, _ := strings.Cut(sc.Text(), " ")
		golden[name] = rest
	}
	if want := len(inplaceCases) * len(inplaceMorphs); len(golden) != want {
		t.Errorf("golden file has %d cases, the matrix %d", len(golden), want)
	}
	var table strings.Builder // what the golden file would read if recorded now
	sides := ""
	for _, c := range inplaceCases {
		for _, morph := range inplaceMorphs {
			name := fmt.Sprintf("%s/%s-%s", c.name, morph.Vertex, morph.Edge)
			for _, p := range partitions {
				g := inplaceGraph(p)
				res, err := core.Execute(g, c.query, core.Config{Vertex: morph.Vertex, Edge: morph.Edge,
					Access: planner.IndexedAccess{Index: epgm.BuildIndex(g)}, Trace: trace.NewCollector()})
				if err != nil {
					t.Fatalf("%s at %d partitions: %v", name, p, err)
				}
				got := core.ResultKeys(res, false)
				looked := lookedUp(res)
				h := sha256.New()
				for _, k := range got {
					fmt.Fprintln(h, k)
				}
				observed := fmt.Sprintf("%d %x lookup=%s", len(got), h.Sum(nil)[:8], looked)
				if p == partitions[0] {
					fmt.Fprintf(&table, "%s %s\n", name, observed)
					sides += looked
				}
				if observed != golden[name] {
					t.Errorf("%s at %d partitions: %s, recorded %s\n%s", name, p, observed, golden[name], res.AnalyzedPlan())
				}
			}
		}
	}
	if t.Failed() {
		t.Logf("observed:\n%s", table.String())
	}
	if !strings.Contains(sides, ":L") || !strings.Contains(sides, ":R") {
		t.Fatalf("leaves were looked up on sides %q: the matrix does not put one on either side of the merge", sides)
	}
}

// TestInPlaceLeafHasNoEstimate: a leaf that a join read where the store holds
// it - here an edge leaf walked and a vertex leaf looked up - reports the rows
// the join made of it, which its label-sized estimate does not describe. Over
// the index its line and its Cached's carry no estimate, no q-error and no
// err=; every other line carries what it carries over the plain graph, where
// every leaf is scanned and keeps its estimate.
func TestInPlaceLeafHasNoEstimate(t *testing.T) {
	g := inplaceGraph(4)
	const q = `MATCH (a:A)-[e:x]->(b:B) WHERE a.n = 1 RETURN *`
	analyze := func(cfg core.Config) (*core.Result, []string) {
		t.Helper()
		cfg.Trace = trace.NewCollector()
		res, err := core.Execute(g, q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, strings.Split(strings.TrimRight(res.AnalyzedPlan(), "\n"), "\n")
	}
	plain, plainLines := analyze(core.Config{})
	indexed, lines := analyze(core.Config{Access: planner.IndexedAccess{Index: epgm.BuildIndex(g)}})
	plan := strings.Join(lines, "\n")
	if !strings.Contains(plan, "walked in place") || !strings.Contains(plan, "looked up in place") {
		t.Fatalf("the fixture was meant to walk an edge leaf and look a vertex leaf up:\n%s", plan)
	}
	nodes, ops, plainOps := indexed.Plan.Nodes(), indexed.AnalyzedOps(), plain.AnalyzedOps()
	if len(lines) != len(nodes) || len(plainLines) != len(nodes) || len(plainOps) != len(ops) {
		t.Fatalf("%d plan lines and %d over the plain graph for %d nodes:\n%s", len(lines), len(plainLines), len(nodes), plan)
	}
	inPlace := 0
	for i, n := range nodes {
		read := false
		switch leaf := operators.Unwrap(n.Op).(type) {
		case *operators.FilterAndProjectVertices:
			read = leaf.Vertex.Var == "b"
		case *operators.FilterAndProjectEdges:
			read = leaf.Edge.Var == "e"
		}
		if !plainOps[i].HasEstimate || strings.Contains(plainLines[i], "err=") != plainOps[i].HasEstimate {
			t.Errorf("over the plain graph %q has no estimate or no err=", plainLines[i])
		}
		om := ops[i]
		if read {
			inPlace++
			if om.HasEstimate || om.QError != 0 || strings.Contains(lines[i], "err=") {
				t.Errorf("a leaf read in place carries an estimate: %+v\n%s", om, lines[i])
			}
		} else if !om.HasEstimate || om.Est != plainOps[i].Est || !strings.Contains(lines[i], "err=") {
			t.Errorf("%q lost its estimate: %+v", lines[i], om)
		}
	}
	if inPlace < 2 {
		t.Fatalf("%d lines of leaves read in place, want the edge leaf's and the vertex leaf's:\n%s", inPlace, plan)
	}
}
