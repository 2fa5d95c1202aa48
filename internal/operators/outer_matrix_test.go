package operators_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"gradoop/internal/cypher"
	"gradoop/internal/embedding"
	"gradoop/internal/epgm"
	"gradoop/internal/operators"
	"gradoop/internal/planner"
)

type outerCase struct {
	kind    string // outer, semi, anti
	shared  int    // join variables: 1, 2, or 0 for a cartesian outer join
	reject  string // none, some, all: what the predicate does to the candidates
	morph   operators.Morphism
	workers int
}

func (c outerCase) String() string {
	return fmt.Sprintf("%s/shared%d/reject-%s/%s-%s/%dp", c.kind, c.shared, c.reject, c.morph.Vertex, c.morph.Edge, c.workers)
}

func outerCases() []outerCase {
	morphs := []operators.Morphism{
		{Vertex: operators.Homomorphism, Edge: operators.Homomorphism},
		{Vertex: operators.Homomorphism, Edge: operators.Isomorphism},
		{Vertex: operators.Isomorphism, Edge: operators.Isomorphism},
	}
	var cases []outerCase
	for _, kind := range []string{"outer", "semi", "anti"} {
		for _, shared := range []int{1, 2, 0} {
			for _, reject := range []string{"none", "some", "all"} {
				for _, morph := range morphs {
					for _, workers := range []int{1, 4} {
						cases = append(cases, outerCase{kind: kind, shared: shared, reject: reject, morph: morph, workers: workers})
					}
				}
			}
		}
	}
	return cases
}

// rejectBelow is the predicate's threshold on b.n, which is b's id: "some"
// keeps the candidates that end at vertex 4 or beyond, "all" keeps none.
var rejectBelow = map[string]int64{"none": 0, "some": 4, "all": 100}

// build assembles the case's operator, for matrixGraph. The mandatory side
// binds an edge f, so that edge isomorphism has something to reject and some
// mandatory rows find no partner:
//
//	shared 1: (c)-[f:knows]->(a)        with  (a)-[e:knows]->(b)   a two-hop path
//	shared 2: (a)-[f:knows|likes]->(b)  with  (a)-[e:knows]->(b)   a parallel edge
//	shared 0: (c)-[f:knows]->(d)        with  (a)-[e:knows]->(b)   every pair
//
// The other side carries b.n for the predicate. An OPTIONAL MATCH takes the
// predicate as its group predicate; an exists() has no such slot and filters
// its sub-pattern instead, which rejects the same candidates.
func (c outerCase) build(t *testing.T) (op, left, right operators.Operator) {
	t.Helper()
	single := func(v string, types []string, s, tg string) *cypher.QueryEdge {
		return &cypher.QueryEdge{Var: v, Types: types, Source: s, Target: tg, MinHops: 1, MaxHops: 1}
	}
	switch c.shared {
	case 1:
		left = operators.NewFilterAndProjectEdges(single("f", []string{"knows"}, "c", "a"))
	case 2:
		left = operators.NewFilterAndProjectEdges(single("f", []string{"knows", "likes"}, "a", "b"))
	default:
		left = operators.NewFilterAndProjectEdges(single("f", []string{"knows"}, "c", "d"))
	}
	bLeaf := operators.NewFilterAndProjectVertices(&cypher.QueryVertex{Var: "b", Projection: []string{"n"}})
	eLeaf := operators.NewFilterAndProjectEdges(single("e", []string{"knows"}, "a", "b"))
	right = operators.NewJoinEmbeddings(bLeaf, eLeaf, c.morph)

	var preds []cypher.Expr
	if c.reject != "none" {
		q, err := cypher.Parse(fmt.Sprintf("MATCH (b) WHERE b.n >= %d RETURN *", rejectBelow[c.reject]))
		if err != nil {
			t.Fatal(err)
		}
		preds = []cypher.Expr{q.Where}
	}
	switch c.kind {
	case "outer":
		return operators.NewOptionalJoinEmbeddings(left, right, c.morph, preds), left, right
	default:
		if preds != nil {
			right = operators.NewFilterEmbeddings(right, preds)
		}
		return operators.NewSemiJoinEmbeddings(left, right, c.morph, c.kind == "anti"), left, right
	}
}

// flatRow is a row as the reference sees it: one token per column and per
// property value, no paths (the matrix binds none).
type flatRow struct{ cols, props []string }

func flatten(e embedding.Embedding) flatRow {
	var r flatRow
	for i := 0; i < e.Columns(); i++ {
		if e.IsNullAt(i) {
			r.cols = append(r.cols, "null")
		} else {
			r.cols = append(r.cols, fmt.Sprint(uint64(e.ID(i))))
		}
	}
	for i := 0; i < e.PropCount(); i++ {
		r.props = append(r.props, e.Prop(i).String())
	}
	return r
}

func (r flatRow) String() string {
	return strings.Join(r.cols, " ") + " | " + strings.Join(r.props, " ")
}

// reference is the outer, semi or anti join as two nested loops over the
// collected inputs, on tokens: it reads ids and b.n off the rows and decides
// key equality, the morphism and the predicate itself.
func (c outerCase) reference(left, right []embedding.Embedding, lm, rm *embedding.Meta) []string {
	var keyL, keyR, keep []int // join columns; right columns that survive a merge
	for rc := 0; rc < rm.Columns(); rc++ {
		if lc, ok := lm.Column(rm.Var(rc)); ok {
			keyL, keyR = append(keyL, lc), append(keyR, rc)
		} else {
			keep = append(keep, rc)
		}
	}
	bCol, _ := rm.Column("b")
	distinct := func(l, r flatRow, kind embedding.EntryKind) bool {
		seen := map[string]bool{}
		add := func(id string) bool {
			dup := seen[id]
			seen[id] = true
			return !dup
		}
		for lc, id := range l.cols {
			if lm.Kind(lc) == kind && !add(id) {
				return false
			}
		}
		for _, rc := range keep {
			if rm.Kind(rc) == kind && !add(r.cols[rc]) {
				return false
			}
		}
		return true
	}
	var out []string
	for _, le := range left {
		l := flatten(le)
		matched := false
		for _, re := range right {
			r := flatten(re)
			ok := true
			for i := range keyL {
				ok = ok && l.cols[keyL[i]] == r.cols[keyR[i]]
			}
			ok = ok && (c.morph.Vertex != operators.Isomorphism || distinct(l, r, embedding.VertexEntry))
			ok = ok && (c.morph.Edge != operators.Isomorphism || distinct(l, r, embedding.EdgeEntry))
			// b.n is b's id; for semi and anti joins the filter below the join
			// has already applied it to right.
			ok = ok && (c.kind != "outer" || int64(re.ID(bCol)) >= rejectBelow[c.reject])
			if !ok {
				continue
			}
			matched = true
			if c.kind == "outer" {
				m := flatRow{cols: slices.Clone(l.cols), props: append(slices.Clone(l.props), r.props...)}
				for _, rc := range keep {
					m.cols = append(m.cols, r.cols[rc])
				}
				out = append(out, m.String())
			}
		}
		switch {
		case c.kind == "outer" && !matched:
			m := flatRow{cols: slices.Clone(l.cols), props: slices.Clone(l.props)}
			for range keep {
				m.cols = append(m.cols, "null")
			}
			for i := 0; i < rm.PropColumns(); i++ {
				m.props = append(m.props, epgm.Null.String())
			}
			out = append(out, m.String())
		case c.kind == "semi" && matched, c.kind == "anti" && !matched:
			out = append(out, l.String())
		}
	}
	slices.Sort(out)
	return out
}

// TestOuterMatrix holds OptionalJoinEmbeddings and SemiJoinEmbeddings to a
// nested-loop reference over every combination of join kind, number of join
// variables, predicate selectivity, morphism semantics and partition count,
// and the bag of their rows - the wire bytes, sorted - to what the operators
// produced when a key's two groups were handed to a nested loop of their own
// (testdata/outer_matrix.golden, recorded at that commit, before they became
// hash joins). Row order is not part of the contract: OPTIONAL MATCH is an
// outer join of bags.
func TestOuterMatrix(t *testing.T) {
	golden := map[string]string{}
	f, err := os.Open("testdata/outer_matrix.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for sc := bufio.NewScanner(f); sc.Scan(); {
		name, rest, _ := strings.Cut(sc.Text(), " ")
		golden[name] = rest
	}
	if len(golden) != len(outerCases()) {
		t.Errorf("golden file has %d cases, the matrix %d", len(golden), len(outerCases()))
	}

	padded, dropped := 0, 0
	var table strings.Builder // what the golden file would read if recorded now
	for _, c := range outerCases() {
		g := matrixGraph(c.workers)
		op, left, right := c.build(t)
		run := func(op operators.Operator) []embedding.Embedding {
			return op.Evaluate(operators.NewRun(planner.PlainAccess{Graph: g}, nil)).Collect()
		}
		rows := run(op)
		want := c.reference(run(left), run(right), left.Meta(), right.Meta())
		if err := g.Env().Err(); err != nil {
			t.Fatal(err)
		}
		got := make([]string, len(rows))
		wire := make([][]byte, len(rows))
		for i, e := range rows {
			got[i] = flatten(e).String()
			wire[i] = e.AppendWire(nil)
			if e.Columns() > 0 && e.IsNullAt(e.Columns()-1) {
				padded++
			}
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s: engine and reference differ:\n got %q\nwant %q", c, got, want)
		}
		if c.kind != "outer" && len(rows) < len(run(left)) {
			dropped++
		}
		slices.SortFunc(wire, bytes.Compare)
		h := sha256.New()
		for _, w := range wire {
			h.Write(w)
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
	if padded == 0 || dropped < len(outerCases())/3 {
		t.Fatalf("%d NULL-padded rows, %d semi/anti cases that drop a row: the graph does not exercise the matrix", padded, dropped)
	}
}
