package core_test

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
	_ "unsafe" // go:linkname, below

	"gradoop/internal/benchkit"
	"gradoop/internal/core"
	"gradoop/internal/dataflow"
	"gradoop/internal/epgm"
	"gradoop/internal/ldbc"
	"gradoop/internal/operators"
	"gradoop/internal/planner"
	"gradoop/internal/trace"
)

// probeInPlaceScale is operators': the factor on n x P in the rule that sends
// a join into a leaf's scan. It has no setter - it is a constant to
// everything but the tests that hold the two ways to join to the same rows -
// so this test reaches it by name.
//
//go:linkname probeInPlaceScale gradoop/internal/operators.probeInPlaceScale
var probeInPlaceScale float64

// probeScales are the rule at never, as shipped, and whenever a leaf is
// eligible.
var probeScales = []struct {
	name  string
	scale float64
}{{"never", math.Inf(1)}, {"default", 1}, {"always", 0}}

// withProbeScale runs f under each setting of the rule.
func withProbeScale(t *testing.T, f func(t *testing.T, setting string)) {
	t.Helper()
	if probeInPlaceScale != 1 {
		t.Fatalf("probeInPlaceScale reads %v: the name no longer links to operators' variable", probeInPlaceScale)
	}
	defer func() { probeInPlaceScale = 1 }()
	for _, s := range probeScales {
		probeInPlaceScale = s.scale
		t.Run(s.name, func(t *testing.T) { f(t, s.name) })
	}
}

// repartitioned copies g onto an environment of the given partition count,
// ids unchanged.
func repartitioned(g *epgm.LogicalGraph, workers int) *epgm.LogicalGraph {
	return epgm.GraphFromSlices(dataflow.NewEnv(dataflow.DefaultConfig(workers)), "", g.Vertices.Collect(), g.Edges.Collect())
}

// probedLeaves says, for every join of the executed plan that broadcast an
// input into a leaf, which leaf - by its variable - and on which side of the
// merge it was: "e:R,b:L", in plan order.
func probedLeaves(res *core.Result) string {
	unwrap := func(op operators.Operator) operators.Operator {
		for {
			switch o := op.(type) {
			case *operators.Cached:
				op = o.Inner
			case *operators.Alias:
				op = o.In
			default:
				return op
			}
		}
	}
	probed := func(op operators.Operator) (string, bool) {
		op = unwrap(op)
		if st, ok := res.Trace.Op(op); !ok || !strings.HasPrefix(st.Note, "probed in place") {
			return "", false
		}
		if leaf, ok := op.(*operators.FilterAndProjectVertices); ok {
			return leaf.Vertex.Var, true
		}
		return op.(*operators.FilterAndProjectEdges).Edge.Var, true
	}
	var sides []string
	for _, n := range res.Plan.Nodes() {
		if j, ok := n.Op.(*operators.JoinEmbeddings); ok {
			if v, ok := probed(j.Left); ok {
				sides = append(sides, v+":L")
			} else if v, ok := probed(j.Right); ok {
				sides = append(sides, v+":R")
			}
		}
	}
	return strings.Join(sides, ",")
}

// inplaceGraph is a small graph for the in-place matrix: three vertex labels,
// two edge types, a loop, a parallel edge, a two-cycle and vertices nothing
// points at. Ids are constants, so the recorded hashes hold in any process.
func inplaceGraph(workers int) *epgm.LogicalGraph {
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
	return epgm.GraphFromSlices(dataflow.NewEnv(dataflow.DefaultConfig(workers)), "", vs, es)
}

// inplaceCases are the shapes the rule has to get right, as Cypher text. The
// comment says what the join that matters there does; which leaves end up
// probed, and on which side of the merge, is recorded in the golden file.
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
	// The probed leaves have predicates of their own.
	{"leaf-predicates", `MATCH (a:A)-[e:x]->(b:B) WHERE a.n < 3 AND e.w > 0 AND b.color = 'red' RETURN *`},
	// A two-label vertex leaf and a two-type edge leaf: one probe per range.
	{"two-labels", `MATCH (a:A)-[e:x|y]->(b:B|C) WHERE a.n < 3 RETURN *`},
	// An unlabeled leaf reads the whole array.
	{"no-label", `MATCH (a:A)-[e]->(b) WHERE a.n = 2 RETURN *`},
	// Nothing to broadcast.
	{"empty-small-side", `MATCH (a:A)-[e:x]->(b:B) WHERE a.n = 99 RETURN *`},
	// Several small rows share a key: the element's row is built once.
	{"shared-keys", `MATCH (c:B)-[f:y]->(a:A), (a)-[e:x]->(b:B) WHERE c.n < 9 RETURN *`},
	// An undirected edge leaf makes two rows of an edge and is scanned.
	{"undirected-edge", `MATCH (a:A)-[e:x]-(b) WHERE a.n = 1 RETURN *`},
	// A loop edge leaf has two columns and is scanned.
	{"loop-edge", `MATCH (a:A)-[e:x]->(a) WHERE a.n = 1 RETURN *`},
	// e and f, b and c are one leaf behind aliases: scanned once for both.
	{"shared-leaf", `MATCH (a:A)-[e:x]->(b:A), (b)-[f:x]->(c:A) WHERE a.n = 1 RETURN *`},
	// No predicate anywhere: nothing is counted.
	{"no-predicate", `MATCH (a:A)-[e:x]->(b:B) RETURN *`},
}

var inplaceMorphs = []operators.Morphism{
	{Vertex: operators.Homomorphism, Edge: operators.Homomorphism},
	{Vertex: operators.Homomorphism, Edge: operators.Isomorphism},
	{Vertex: operators.Isomorphism, Edge: operators.Isomorphism},
}

// TestProbeInPlaceIsInvisible: whether a join repartitions its inputs or
// broadcasts one of them into the scan of the other decides nothing about the
// result. With the rule at never, as shipped and at whenever a leaf is
// eligible, at 1, 4 and 16 partitions, over an index: the matrix above, the
// paper's Q1-Q6 at three selectivities and the 72 random queries of
// TestRandomQueriesAgainstReference are the bag of matches the brute-force
// reference finds. Rows are compared as bags: an in-place join emits in scan
// order, and rows without ORDER BY are unordered. The matrix is also held to
// testdata/inplace_matrix.golden: per case its rows, and the leaves probed
// with the rule at always, which is what says that a leaf on either side of
// the merge, a two-label leaf and an empty small side took the path and an
// undirected, a loop and a shared leaf did not.
func TestProbeInPlaceIsInvisible(t *testing.T) {
	partitions := []int{1, 4, 16}
	withProbeScale(t, func(t *testing.T, setting string) {
		t.Run("matrix", func(t *testing.T) { checkInplaceMatrix(t, setting, partitions) })
		t.Run("paper", func(t *testing.T) {
			if testing.Short() {
				t.Skip("oracle comparison is exponential in pattern size")
			}
			d := ldbc.Generate(dataflow.NewEnv(dataflow.DefaultConfig(1)), ldbc.Config{ScaleFactor: 0.02, Seed: 4})
			common, medium, rare := d.FirstNamesBySelectivity()
			graphs := make([]*epgm.LogicalGraph, len(partitions))
			for i, p := range partitions {
				graphs[i] = repartitioned(d.Graph, p)
			}
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
					var want []string
					for i, g := range graphs {
						cfg.Access = planner.IndexedAccess{Index: epgm.BuildIndex(g)}
						res, err := core.Execute(g, q.Text(), cfg)
						if err != nil {
							t.Fatalf("%s at %d partitions: %v", q, partitions[i], err)
						}
						if want == nil {
							want = core.ReferenceKeys(g, res.QueryGraph, operators.Morphism{Vertex: cfg.Vertex, Edge: cfg.Edge})
						}
						if got := core.ResultKeys(res); !slices.Equal(got, want) {
							t.Fatalf("%s (firstName=%q) at %d partitions: engine found %d matches, reference %d\n%s",
								q, name, partitions[i], len(got), len(want), res.Explain())
						}
					}
				}
			}
		})
		t.Run("random", func(t *testing.T) {
			morphs := inplaceMorphs
			for seed := int64(0); seed < 6; seed++ {
				rng := rand.New(rand.NewSource(seed))
				base := core.RandomGraph(rng, 1, 10, 16)
				graphs := make([]*epgm.LogicalGraph, len(partitions))
				for i, p := range partitions {
					graphs[i] = repartitioned(base, p)
				}
				for i := 0; i < 12; i++ {
					q := core.RandomQuery(rng)
					morph := morphs[rng.Intn(len(morphs))]
					cfg := core.Config{Vertex: morph.Vertex, Edge: morph.Edge}
					var want []string
					for k, g := range graphs {
						cfg.Access = planner.IndexedAccess{Index: epgm.BuildIndex(g)}
						res, err := core.Execute(g, q, cfg)
						if err != nil {
							t.Fatalf("seed%d/q%d at %d partitions: %q: %v", seed, i, partitions[k], q, err)
						}
						if want == nil {
							want = core.ReferenceKeys(g, res.QueryGraph, morph)
						}
						if got := core.ResultKeys(res); !slices.Equal(got, want) {
							t.Fatalf("seed%d/q%d at %d partitions: %q: engine found %d matches, reference %d\n%s",
								seed, i, partitions[k], q, len(got), len(want), res.Explain())
						}
					}
				}
			}
		})
	})
}

func checkInplaceMatrix(t *testing.T, setting string, partitions []int) {
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
			var want []string
			for _, p := range partitions {
				g := inplaceGraph(p)
				res, err := core.Execute(g, c.query, core.Config{Vertex: morph.Vertex, Edge: morph.Edge,
					Access: planner.IndexedAccess{Index: epgm.BuildIndex(g)}, Trace: trace.NewCollector()})
				if err != nil {
					t.Fatalf("%s at %d partitions: %v", name, p, err)
				}
				if want == nil {
					want = core.ReferenceKeys(g, res.QueryGraph, morph)
				}
				got := core.ResultKeys(res)
				if !slices.Equal(got, want) {
					t.Errorf("%s at %d partitions: engine and reference differ:\n got %q\nwant %q\n%s", name, p, got, want, res.AnalyzedPlan())
					continue
				}
				probed := probedLeaves(res)
				switch setting {
				case "never":
					if probed != "" {
						t.Errorf("%s at %d partitions: leaves probed in place with the rule at never:\n%s", name, p, res.AnalyzedPlan())
					}
					continue
				case "default":
					continue // fires or not with n, m and the partition count
				}
				h := sha256.New()
				for _, k := range got {
					fmt.Fprintln(h, k)
				}
				observed := fmt.Sprintf("%d %x probed=%s", len(got), h.Sum(nil)[:8], probed)
				if p == partitions[0] {
					fmt.Fprintf(&table, "%s %s\n", name, observed)
					sides += probed
				}
				if observed != golden[name] {
					t.Errorf("%s at %d partitions: %s, recorded %s\n%s", name, p, observed, golden[name], res.AnalyzedPlan())
				}
			}
		}
	}
	if setting != "always" {
		return
	}
	if t.Failed() {
		t.Logf("observed:\n%s", table.String())
	}
	if !strings.Contains(sides, ":L") || !strings.Contains(sides, ":R") {
		t.Fatalf("leaves were probed on sides %q: the matrix does not put one on either side of the merge", sides)
	}
}
