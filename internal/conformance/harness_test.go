// Package conformance holds every way this module executes Cypher to one
// promise: the rows the query means, or the same structured error. A mode is
// an execution path written as one function from a case to an outcome (modes
// in modes_test.go); a case is a query over a fixture, with its parameters
// and a morphism setting (corpus_test.go). Every mode runs every case. The
// package has test files only: nothing imports it.
package conformance

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"gradoop/internal/baseline"
	"gradoop/internal/core"
	"gradoop/internal/cypher"
	"gradoop/internal/dataflow"
	"gradoop/internal/epgm"
	"gradoop/internal/operators"
	"gradoop/internal/stats"
)

// fixture is a graph as element slices, built once. A mode wraps the slices
// on an environment of its own, so every mode - and the reference - sees the
// same elements under the same ids.
type fixture struct {
	name  string
	vs    []epgm.Vertex
	es    []epgm.Edge
	stats *stats.GraphStatistics // collected once: an engine run charges no statistics job
	held  map[string]any         // what the running mode keeps: sessions, a cluster
	done  []func()               // and how it lets go of them
}

// graph wraps the fixture on a new environment of the given partition count.
func (f *fixture) graph(partitions int) *epgm.LogicalGraph {
	return epgm.GraphFromSlices(dataflow.NewEnv(dataflow.DefaultConfig(partitions)), f.name, f.vs, f.es)
}

// hold returns what build made of key for the running mode, building it on
// the mode's first ask.
func hold[T any](f *fixture, key string, build func() (T, func())) T {
	if v, ok := f.held[key]; ok {
		return v.(T)
	}
	v, done := build()
	f.held[key] = v
	f.done = append(f.done, done)
	return v
}

// release lets go of what the mode held, the last built first.
func (f *fixture) release() {
	for i := len(f.done) - 1; i >= 0; i-- {
		f.done[i]()
	}
	f.held, f.done = map[string]any{}, nil
}

// kase is one query of the corpus under one morphism setting.
type kase struct {
	f      *fixture
	name   string // fixture/spec/setting
	query  string
	json   map[string]any // the parameters as an HTTP body carries them
	params map[string]epgm.PropertyValue
	morph  operators.Morphism
	empty  bool   // nothing matches
	err    string // the error kind every mode reports instead of rows
}

// outcome is what a mode made of a case: its table - each row the JSON array
// an HTTP body carries, in the order the mode returned them - or an error
// kind, and the job's charges when the mode ran one.
type outcome struct {
	cols []string // nil: the mode cannot say (the library's rows carry them, so an empty answer has none)
	rows []string
	err  string
	job  *dataflow.MetricsSnapshot
	// seedCPU is the plans mode's: the least and the most CPU its seeded
	// plans charged.
	seedCPU [2]int64
}

// table renders library rows as JSON arrays, cell by cell as a body does.
func table(cols []string, rows []core.Row) outcome {
	o := outcome{cols: cols, rows: make([]string, len(rows))}
	for i, r := range rows {
		b := []byte{'['}
		for j, v := range r.Values {
			if j > 0 {
				b = append(b, ',')
			}
			b = core.AppendJSONValue(b, v)
		}
		o.rows[i] = string(append(b, ']'))
	}
	return o
}

// bag is the rows as a sorted multiset, each row its cells keyed by column
// name in name order: a RETURN * table's column order is the plan's.
func (o outcome) bag() []string {
	out := make([]string, len(o.rows))
	for i, r := range o.rows {
		var cells []json.RawMessage
		if err := json.Unmarshal([]byte(r), &cells); err != nil || len(cells) != len(o.cols) {
			out[i] = "malformed row " + r
			continue
		}
		keyed := make([]string, len(cells))
		for j, c := range cells {
			keyed[j] = o.cols[j] + "=" + string(c)
		}
		slices.Sort(keyed)
		out[i] = strings.Join(keyed, " ")
	}
	slices.Sort(out)
	return out
}

// pattern returns the query graph of a pattern-only RETURN * case, the kind
// the reference evaluates; ok is false for any other query - the reference
// knows no OPTIONAL MATCH, exists() or RETURN items.
func pattern(c *kase) (qg *cypher.QueryGraph, ok bool) {
	ast, err := cypher.Parse(c.query)
	if err != nil {
		return nil, false
	}
	qg, err = cypher.BuildQueryGraph(ast, c.params)
	if err != nil {
		return nil, false
	}
	r := qg.Return
	if !r.Star || r.Distinct || len(r.OrderBy) > 0 || r.Skip >= 0 || r.Limit >= 0 || len(qg.Optional) > 0 || len(qg.Existence) > 0 {
		return nil, false
	}
	return qg, true
}

// bindings lists the variables of qg a match binds: the named ones, or every
// one if all is set.
func bindings(qg *cypher.QueryGraph, all bool) []string {
	var vars []string
	for _, qv := range qg.Vertices {
		if all || !qv.Anonymous {
			vars = append(vars, qv.Var)
		}
	}
	for _, qe := range qg.Edges {
		if all || !qe.Anonymous {
			vars = append(vars, qe.Var)
		}
	}
	return vars
}

// reference is the brute-force reference's answer to a pattern-only RETURN *
// case (pattern): a row per binding of the named variables, or of every
// variable if all is set.
func reference(c *kase, all bool) (want outcome, ok bool) {
	qg, ok := pattern(c)
	if !ok {
		return want, false
	}
	want.cols = bindings(qg, all)
	var cells []func(b baseline.Binding) epgm.PropertyValue
	for _, v := range want.cols {
		qe, isEdge := qg.EdgeByVar(v)
		switch {
		case !isEdge:
			cells = append(cells, func(b baseline.Binding) epgm.PropertyValue { return epgm.PVInt(int64(b.Vertices[v])) })
		case qe.IsVarLength(): // "[e1 v1 e2]", as a path cell reads
			cells = append(cells, func(b baseline.Binding) epgm.PropertyValue { return epgm.PVString(fmt.Sprint(b.Paths[v])) })
		default:
			cells = append(cells, func(b baseline.Binding) epgm.PropertyValue { return epgm.PVInt(int64(b.Edges[v])) })
		}
	}
	var rows []core.Row
	for _, b := range baseline.NewReference(c.f.graph(1)).Match(qg, c.morph) {
		row := core.Row{Values: make([]epgm.PropertyValue, len(cells))}
		for i, cell := range cells {
			row.Values[i] = cell(b)
		}
		rows = append(rows, row)
	}
	want.rows = table(nil, rows).rows
	return want, true
}

// filters names the key sets a case's plan, as engine/4 runs it, hands on
// (JoinEmbeddings.PlaceKeySets): "join" for a set of a join's left input that
// a join below its right one takes, "seed" and "end" for an expansion's seed
// set and end set, and "right" for a join that runs its right input first;
// "transfer" for an end set the modes over a pinned store transfer back across
// its expansion's walk.
func filters(c *kase) map[string]bool {
	sets := map[string]bool{}
	prep, err := core.Prepare(c.f.graph(4), c.query, core.Config{Vertex: c.morph.Vertex, Edge: c.morph.Edge, Params: c.params, Stats: c.f.stats})
	if err != nil {
		return sets
	}
	for _, n := range prep.Plan.Nodes() {
		j, ok := n.Op.(*operators.JoinEmbeddings)
		if !ok || len(j.KeySets()) == 0 {
			continue
		}
		for _, s := range j.KeySets() {
			if _, ok := s.Transfer(); ok {
				sets["transfer"] = true
			}
		}
		if j.RightFirst() {
			sets["right"] = true
			continue
		}
		switch s := j.KeySets()[0]; {
		case s.End():
			sets["end"] = true
		default:
			if _, expands := s.Target.(*operators.ExpandEmbeddings); expands {
				sets["seed"] = true
			} else {
				sets["join"] = true
			}
		}
	}
	return sets
}

// judge holds got to the expected outcome as a bag and, for a mode with a
// twin, to the twin's outcome in order and, for one that claims its work, to
// its charges. It says what differs, or nothing.
func judge(m *mode, got, want outcome, twin *outcome) string {
	if got.err != "" || want.err != "" {
		if got.err == want.err || got.err == anyError && want.err != "" {
			return ""
		}
		return fmt.Sprintf("error %q, want %q", got.err, want.err)
	}
	cols := got.cols
	if cols == nil {
		got.cols = want.cols
	} else if !slices.Equal(slices.Sorted(slices.Values(cols)), slices.Sorted(slices.Values(want.cols))) {
		return fmt.Sprintf("columns %q, want %q", cols, want.cols)
	}
	if g, w := got.bag(), want.bag(); !slices.Equal(g, w) {
		return fmt.Sprintf("%d rows, want %d%s", len(g), len(w), firstDiff(g, w))
	}
	switch {
	case twin == nil:
	case !slices.Equal(got.rows, twin.rows) || cols != nil && !slices.Equal(cols, twin.cols):
		return fmt.Sprintf("rows differ from %s's in bytes or order%s", m.twin, firstDiff(got.rows, twin.rows))
	case m.sameWork && charges(got.job) != charges(twin.job):
		return fmt.Sprintf("charged cpu, net %v, %s %v", charges(got.job), m.twin, charges(twin.job))
	}
	return ""
}

// worklist logs the ten cases whose greedy plan, as indexed/4 runs it,
// charges the most CPU over the cheapest of the plans mode's seeded plans on
// the same deployment - a join order or expansion direction the estimates
// miss - with the dearest seed's.
func worklist(t *testing.T, all []*kase, greedy, seeded []outcome) {
	if greedy == nil || seeded == nil {
		return
	}
	type entry struct {
		ratio               float64
		greedy, best, worst int64
		c                   *kase
	}
	var es []entry
	for i, c := range all {
		if g, s := greedy[i].job, seeded[i].seedCPU; g != nil && s[0] > 0 {
			es = append(es, entry{float64(g.TotalCPU) / float64(s[0]), g.TotalCPU, s[0], s[1], c})
		}
	}
	slices.SortStableFunc(es, func(a, b entry) int { return cmp.Compare(b.ratio, a.ratio) })
	var lines []string
	for _, e := range es[:min(10, len(es))] {
		lines = append(lines, fmt.Sprintf("%.2fx: greedy %d, seeds %d-%d  %s %s", e.ratio, e.greedy, e.best, e.worst, e.c.name, strings.Join(strings.Fields(e.c.query), " ")))
	}
	t.Logf("the %d cases whose greedy plan charges the most CPU over the cheapest seeded plan:\n%s", len(lines), strings.Join(lines, "\n"))
}

func charges(job *dataflow.MetricsSnapshot) [2]int64 {
	if job == nil {
		return [2]int64{-1, -1}
	}
	return [2]int64{job.TotalCPU, job.TotalNet}
}

func firstDiff(got, want []string) string {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Sprintf("; first difference:\n got %s\nwant %s", got[i], want[i])
		}
	}
	return ""
}

// TestConformance runs every mode over every case. Under -short it leaves out
// the modes that start TCP workers and the LDBC fixture.
func TestConformance(t *testing.T) {
	all := corpus(testing.Short())

	// A case's expected rows are the reference's, or the anchor's - modes[0],
	// the engine at one partition over the plain graph - where the reference
	// cannot evaluate the query.
	anchor := make([]outcome, len(all))
	want := make([]outcome, len(all))
	var anchorOnly []string
	filtering, byKind := 0, map[string]int{}
	for i, c := range all {
		anchor[i] = modes[0].run(c)
		ref, ok := reference(c, false)
		switch {
		case c.err != "":
			want[i] = outcome{err: c.err}
		case ok:
			want[i] = ref
			sets := filters(c)
			if len(sets) > 0 {
				filtering++
			}
			for kind := range sets {
				byKind[kind]++
			}
		default:
			want[i] = anchor[i]
			anchorOnly = append(anchorOnly, c.name+" "+c.query)
		}
		if c.err == "" && want[i].err == "" && (len(want[i].rows) == 0) != c.empty {
			t.Errorf("%s: declared empty=%v, but %d rows are expected\n%s", c.name, c.empty, len(want[i].rows), c.query)
		}
	}

	// A mode's outcomes, run on first ask: a twin runs for the mode it is the
	// twin of even where -run leaves its own subtest out.
	byName := map[string]*mode{}
	for i := range modes {
		byName[modes[i].name] = &modes[i]
	}
	outcomes := map[string][]outcome{modes[0].name: anchor}
	outcomesOf := func(m *mode) []outcome {
		if got, ok := outcomes[m.name]; ok {
			return got
		}
		got := make([]outcome, len(all))
		for i, c := range all {
			got[i] = m.run(c)
		}
		for _, c := range all {
			c.f.release()
		}
		outcomes[m.name] = got
		return got
	}
	judged := 0
	for mi := range modes {
		m := &modes[mi]
		if m.cluster && testing.Short() {
			continue
		}
		t.Run(m.name, func(t *testing.T) {
			got := outcomesOf(m)
			var twin []outcome
			if m.twin != "" {
				twin = outcomesOf(byName[m.twin])
			}
			for i, c := range all {
				var tw *outcome
				if twin != nil {
					tw = &twin[i]
				}
				w := want[i]
				if m.bindings && c.err == "" {
					var ok bool
					if w, ok = reference(c, true); !ok {
						continue
					}
				}
				if msg := judge(m, got[i], w, tw); msg != "" {
					t.Errorf("%s: %s\n%s", c.name, msg, c.query)
				}
			}
			judged++
		})
	}
	t.Logf("%d modes x %d cases = %d runs", judged, len(all), judged*len(all))
	worklist(t, all, outcomes["indexed/4"], outcomes["plans/4"])
	t.Logf("%d cases the reference evaluates take a key set in engine/4: %d a join's, %d an expansion's seed set, %d its end set, %d a join's that runs right first; %d an end set transferred across the walk over a pinned store",
		filtering, byKind["join"], byKind["seed"], byKind["end"], byKind["right"], byKind["transfer"])
	t.Logf("%d cases the reference cannot evaluate, held to the anchor:\n%s", len(anchorOnly), strings.Join(anchorOnly, "\n"))
}
