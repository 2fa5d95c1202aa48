package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"gradoop/internal/dataflow"
	"gradoop/internal/operators"
	"gradoop/internal/stats"
	"gradoop/internal/trace"
)

const traceTestQuery = `MATCH (p:Person)-[:knows]->(q:Person)-[:studyAt]->(u:University) RETURN *`

// TestTracingDisabledParity: running the same query with and without a
// trace collector must produce identical embeddings and an identical
// metrics snapshot — tracing observes the execution, it never perturbs it.
func TestTracingDisabledParity(t *testing.T) {
	g := figure1(4)
	st := stats.Collect(g)
	base := Config{Vertex: operators.Homomorphism, Edge: operators.Isomorphism, Stats: st}

	runOnce := func(col *trace.Collector) ([]Row, dataflow.MetricsSnapshot) {
		cfg := base
		cfg.Trace = col
		g.Env().ResetMetrics()
		res := run(t, g, traceTestQuery, cfg)
		return res.Rows(), g.Env().Metrics()
	}

	plainRows, plainMetrics := runOnce(nil)
	tracedRows, tracedMetrics := runOnce(trace.NewCollector())

	if !reflect.DeepEqual(plainRows, tracedRows) {
		t.Errorf("rows differ with tracing enabled:\nplain:  %v\ntraced: %v", plainRows, tracedRows)
	}
	if !reflect.DeepEqual(plainMetrics, tracedMetrics) {
		t.Errorf("metrics differ with tracing enabled:\nplain:  %+v\ntraced: %+v", plainMetrics, tracedMetrics)
	}
}

// TestChromeTraceRoundTrip: the exported trace_event JSON must contain one
// driver event per executed stage and attempt events covering every worker
// track.
func TestChromeTraceRoundTrip(t *testing.T) {
	const workers = 4
	g := figure1(workers)
	st := stats.Collect(g)
	col := trace.NewCollector()
	g.Env().ResetMetrics()
	res := run(t, g, traceTestQuery, Config{
		Vertex: operators.Homomorphism, Edge: operators.Isomorphism,
		Stats: st, Trace: col,
	})
	if res.Count() == 0 {
		t.Fatal("query matched nothing; trace would be trivial")
	}
	m := g.Env().Metrics()

	var buf bytes.Buffer
	if err := col.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc trace.ChromeTrace
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}

	var stages int64
	workerTracks := map[int]bool{}
	for _, e := range doc.TraceEvents {
		switch e.Cat {
		case "stage":
			stages++
			if e.TID != 0 {
				t.Errorf("stage event %q on tid %d, want driver track 0", e.Name, e.TID)
			}
		case "attempt":
			workerTracks[e.TID] = true
		}
	}
	if stages != m.Stages {
		t.Errorf("trace has %d stage events, metrics counted %d stages", stages, m.Stages)
	}
	if int64(len(col.Spans())) != m.Stages {
		t.Errorf("collector holds %d spans for %d stages", len(col.Spans()), m.Stages)
	}
	for w := 1; w <= workers; w++ {
		if !workerTracks[w] {
			t.Errorf("no attempt events on worker track %d (tracks seen: %v)", w, workerTracks)
		}
	}
}

// TestAnalyzedPlan: every operator line of the EXPLAIN ANALYZE rendering
// must carry both the estimate and the recorded actuals, and the root
// actual must equal the result cardinality.
func TestAnalyzedPlan(t *testing.T) {
	g := figure1(2)
	res := run(t, g, traceTestQuery, Config{
		Vertex: operators.Homomorphism, Edge: operators.Isomorphism,
		Trace: trace.NewCollector(),
	})

	analyzed := res.AnalyzedPlan()
	lines := strings.Split(strings.TrimRight(analyzed, "\n"), "\n")
	for i, line := range lines {
		for _, want := range []string{"~", "act=", "err=", "self=", "sim="} {
			if !strings.Contains(line, want) {
				t.Errorf("line %d lacks %q: %q", i, want, line)
			}
		}
	}
	rootAct, ok := res.Trace.Op(res.Plan.Root)
	if !ok {
		t.Fatal("root operator has no trace statistics")
	}
	if rootAct.Rows != res.Count() {
		t.Errorf("root actual %d != result count %d", rootAct.Rows, res.Count())
	}
}

// TestProfileBuiltOnce: a Result has one per-operator profile. AnalyzedOps
// hands out the same slice every time, and AnalyzedPlan renders that slice -
// shown by writing a cardinality no execution produced into it - so the plan
// is walked once however many views of it a response carries.
func TestProfileBuiltOnce(t *testing.T) {
	res := run(t, figure1(2), traceTestQuery, Config{
		Vertex: operators.Homomorphism, Edge: operators.Isomorphism,
		Trace: trace.NewCollector(),
	})
	first, second := res.AnalyzedOps(), res.AnalyzedOps()
	if len(first) == 0 || &first[0] != &second[0] {
		t.Fatalf("AnalyzedOps built its profile twice (%d operators)", len(first))
	}
	first[0].Act = 987654321
	if plan := res.AnalyzedPlan(); !strings.Contains(plan, "act=987654321") {
		t.Errorf("AnalyzedPlan does not render the slice AnalyzedOps returns:\n%s", plan)
	}
}

// TestAnalyzedPlanFallsBackWithoutTrace: without a collector the analyzed
// rendering degrades to the plain Explain output.
func TestAnalyzedPlanFallsBackWithoutTrace(t *testing.T) {
	g := figure1(2)
	res := run(t, g, traceTestQuery, Config{
		Vertex: operators.Homomorphism, Edge: operators.Isomorphism,
	})
	if res.AnalyzedPlan() != res.Explain() {
		t.Error("AnalyzedPlan without a trace should equal Explain")
	}
}

// TestTraceRetriesVisible: a fault-injected query must surface its retries
// in the trace spans.
func TestTraceRetriesVisible(t *testing.T) {
	g := figure1(4)
	// Stats are precomputed so the fault plan's stage numbers refer to the
	// traced query stages, not the stats-collection job.
	st := stats.Collect(g)
	col := trace.NewCollector()
	g.Env().ResetMetrics()
	g.Env().InjectFaults(&dataflow.FaultPlan{Kills: []dataflow.Kill{
		{Stage: 1, Partition: 1}, {Stage: 2, Partition: 0, Times: 2},
	}})
	defer g.Env().InjectFaults(nil)
	run(t, g, traceTestQuery, Config{
		Vertex: operators.Homomorphism, Edge: operators.Isomorphism,
		Stats: st, Trace: col,
	})
	var retries int64
	var failedAttempts int
	for _, s := range col.Spans() {
		retries += s.Retries()
		for _, a := range s.Attempts {
			if a.Failed {
				failedAttempts++
			}
		}
	}
	if retries == 0 || failedAttempts == 0 {
		t.Errorf("injected failure left no trace: retries=%d failedAttempts=%d", retries, failedAttempts)
	}
	if m := g.Env().Metrics(); m.Retries != retries {
		t.Errorf("metrics retries %d != trace retries %d", m.Retries, retries)
	}
}
