package session

import (
	"context"
	"encoding/json"
	"reflect"
	"sort"
	"testing"
	"time"

	"gradoop/internal/core"
	"gradoop/internal/dataflow"
	"gradoop/internal/epgm"
	"gradoop/internal/obs"
	"gradoop/internal/qstore"
)

// qstoreSession builds a session over the shared test graph with a query
// store in dir.
func qstoreSession(t *testing.T, dir string, opts Options) (*Session, *qstore.Store) {
	t.Helper()
	st, err := qstore.Open(qstore.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	opts.QueryStore = st
	return New(testGraph(2), opts), st
}

// localRemote is a RemoteExecutor that runs the job in process and reports
// it as a cluster would, with charges no local run could produce.
type localRemote struct{}

func (localRemote) ExecuteRemote(g *epgm.LogicalGraph, prep *core.Prepared, cfg core.Config) (*core.Result, *ClusterReport, error) {
	res, err := prep.Execute(g, cfg)
	if err != nil {
		return nil, nil, err
	}
	return res, &ClusterReport{Workers: 2, Attempts: 1,
		Metrics: dataflow.MetricsSnapshot{Workers: 2, Stages: 7, TotalCPU: 424242}}, nil
}

// TestRecordPerExitPath drives one request down every way out of Execute
// and holds the three ledgers to each other: exactly one of the session's
// outcome counters moves (none for a success), the matching
// gradoop_query_errors_total{kind} series moves (or none), the duration
// histogram gains one sample and the query store one record with the
// matching outcome. The rows spell the counter, the label and the outcome
// out, so the table behind settle is checked against this one, not itself.
func TestRecordPerExitPath(t *testing.T) {
	const knows = `MATCH (a:Person)-[:knows]->(b:Person) RETURN a.name, b.name`
	failures := map[string]func(Metrics) int64{
		"invalid":       func(m Metrics) int64 { return m.Invalid },
		"rejected":      func(m Metrics) int64 { return m.Rejected },
		"timeout":       func(m Metrics) int64 { return m.Timeouts },
		"failed":        func(m Metrics) int64 { return m.Failed },
		"memory-budget": func(m Metrics) int64 { return m.MemoryKilled },
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	var everyStage []dataflow.Kill
	for stage := int64(1); stage <= 12; stage++ {
		for part := 0; part < 2; part++ {
			everyStage = append(everyStage, dataflow.Kill{Stage: stage, Partition: part, Times: 8})
		}
	}

	rows := []struct {
		name string
		opts Options
		// arrange puts the session into the state the row needs and returns
		// what undoes it (nil for nothing).
		arrange func(t *testing.T, s *Session) (undo func())
		req     Request
		// label is the failure's name in Metrics and in
		// gradoop_query_errors_total, "" for a success; kind what KindOf says
		// of the error; outcome what the record says.
		label   string
		kind    Kind
		outcome qstore.Outcome
		check   func(t *testing.T, s *Session, resp *Response, rec qstore.Record)
	}{
		{name: "ok", req: Request{Query: knows}, outcome: qstore.OutcomeOK,
			check: func(t *testing.T, s *Session, resp *Response, rec qstore.Record) {
				if rec.ResultCacheHit || rec.PlanCacheHit || rec.PlanHash == "" || rec.PlanHash != resp.Fingerprint {
					t.Errorf("cold run recorded as %+v", rec)
				}
				if rec.RootQError <= 0 || rec.ExecNs <= 0 || rec.Rows != resp.Count {
					t.Errorf("cold run record misses its q-error, timings or rows: %+v", rec)
				}
				if m := s.Metrics(); m.PlanMisses != 1 || m.ResultMisses != 1 || m.Cluster.Jobs != 1 {
					t.Errorf("cold run booked as %+v", m)
				}
			}},
		{name: "result-cache hit", req: Request{Query: knows}, outcome: qstore.OutcomeOK,
			arrange: func(t *testing.T, s *Session) func() {
				if _, err := serve(s, Request{Query: knows}); err != nil {
					t.Fatal(err)
				}
				return nil
			},
			check: func(t *testing.T, s *Session, resp *Response, rec qstore.Record) {
				if !resp.FromResultCache || !rec.ResultCacheHit || rec.PlanCacheHit || rec.ExecNs != 0 {
					t.Errorf("hit recorded as %+v", rec)
				}
				if m := s.Metrics(); m.ResultHits != 1 || m.Cluster.Jobs != 1 {
					t.Errorf("a hit ran a job or was not counted: %+v", m)
				}
			}},
		{name: "empty query", req: Request{Query: "   "},
			label: "invalid", kind: KindInvalid, outcome: qstore.OutcomeInvalid},
		{name: "compile error", req: Request{Query: "MATCH ((("},
			label: "invalid", kind: KindInvalid, outcome: qstore.OutcomeInvalid,
			check: func(t *testing.T, s *Session, _ *Response, rec qstore.Record) {
				if m := s.Metrics(); m.PlanMisses != 1 || m.PlanHits != 0 || rec.PlanCacheHit {
					t.Errorf("a failed compilation is a plan miss: %+v", m)
				}
			}},
		{name: "queue full", opts: Options{MaxConcurrent: 1, MaxQueued: 1}, req: Request{Query: knows},
			label: "rejected", kind: KindRejected, outcome: qstore.OutcomeRejected,
			arrange: func(t *testing.T, s *Session) func() {
				s.gate.slots <- struct{}{}
				s.gate.waiting.Add(1)
				return func() { s.gate.waiting.Add(-1); <-s.gate.slots }
			},
			check: func(t *testing.T, s *Session, _ *Response, rec qstore.Record) {
				if n := s.obs.admissionWait.Count(); n != 0 {
					t.Errorf("a request turned away at once is in the wait histogram (%d samples)", n)
				}
			}},
		{name: "expired while queued", opts: Options{MaxConcurrent: 1},
			req:   Request{Query: knows, Timeout: 20 * time.Millisecond},
			label: "timeout", kind: KindTimeout, outcome: qstore.OutcomeTimeout,
			arrange: func(t *testing.T, s *Session) func() {
				s.gate.slots <- struct{}{}
				return func() { <-s.gate.slots }
			},
			check: func(t *testing.T, s *Session, _ *Response, rec qstore.Record) {
				// The longest waits are the ones that never won a slot.
				if rec.QueueNs < int64(20*time.Millisecond) || rec.ElapsedNs < rec.QueueNs {
					t.Errorf("queueNs=%d elapsedNs=%d for a request that waited out 20ms", rec.QueueNs, rec.ElapsedNs)
				}
				if n := s.obs.admissionWait.Count(); n != 1 {
					t.Errorf("wait histogram has %d samples, want the expired wait", n)
				}
			}},
		{name: "deadline mid-flight", req: Request{Query: knows, Context: cancelled},
			label: "timeout", kind: KindTimeout, outcome: qstore.OutcomeTimeout,
			check: func(t *testing.T, s *Session, _ *Response, rec qstore.Record) {
				if rec.PlanHash == "" || s.obs.admissionWait.Count() != 1 {
					t.Errorf("the request was not admitted and compiled before it died: %+v", rec)
				}
			}},
		{name: "memory kill", opts: Options{MemoryBudget: 4 << 10},
			req:   Request{Query: `MATCH (a:Person),(b:Person),(c:Person),(d:Person) RETURN a, b, c, d`},
			label: "memory-budget", kind: KindMemoryBudget, outcome: qstore.OutcomeMemoryKill},
		{name: "missing $param", req: Request{Query: `MATCH (a:Person) WHERE a.name = $name RETURN a.name`},
			label: "invalid", kind: KindInvalid, outcome: qstore.OutcomeInvalid},
		{name: "execution failure", outcome: qstore.OutcomeError, label: "failed", kind: KindFailed,
			req: Request{Query: knows, Faults: &dataflow.FaultPlan{MaxRetries: 1, Kills: everyStage}},
			arrange: func(t *testing.T, s *Session) func() {
				if _, _, err := s.Explain(knows); err != nil { // warms the plan cache
					t.Fatal(err)
				}
				return nil
			},
			check: func(t *testing.T, s *Session, _ *Response, rec qstore.Record) {
				if !rec.PlanCacheHit || s.Metrics().PlanHits != 1 {
					t.Errorf("a failed run on a cached plan lost its plan-cache hit: %+v", rec)
				}
				if rec.PlanHash == "" || rec.ExecNs <= 0 || s.Metrics().Cluster.Jobs != 0 {
					t.Errorf("failed run recorded as %+v", rec)
				}
			}},
		{name: "remote execution", opts: Options{Remote: localRemote{}}, req: Request{Query: knows},
			outcome: qstore.OutcomeOK,
			check: func(t *testing.T, s *Session, resp *Response, rec qstore.Record) {
				if resp.Cluster == nil || resp.Metrics.TotalCPU != 424242 || s.Metrics().Cluster.TotalCPU != 424242 {
					t.Errorf("the workers' charges are the job's: resp %+v", resp.Metrics)
				}
			}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			row.opts.Metrics = obs.NewRegistry()
			s, st := qstoreSession(t, t.TempDir(), row.opts)
			defer st.Close()
			if row.arrange != nil {
				if undo := row.arrange(t, s); undo != nil {
					defer undo()
				}
			}
			before, records, samples := s.Metrics(), st.Records(), s.obs.queryTime.Count()
			series := map[string]int64{}
			for label := range failures {
				series[label] = s.obs.errors.With(label).Value()
			}

			resp, err := s.Execute(row.req)

			if (err == nil) != (row.label == "") || (err != nil && KindOf(err) != row.kind) {
				t.Fatalf("err = %v, want kind %q", err, row.label)
			}
			after := s.Metrics()
			if after.Queries != before.Queries+1 {
				t.Errorf("queries moved by %d", after.Queries-before.Queries)
			}
			for label, read := range failures {
				want := int64(0)
				if label == row.label {
					want = 1
				}
				if got := read(after) - read(before); got != want {
					t.Errorf("session counter %q moved by %d, want %d", label, got, want)
				}
				if got := s.obs.errors.With(label).Value() - series[label]; got != want {
					t.Errorf("gradoop_query_errors_total{kind=%q} moved by %d, want %d", label, got, want)
				}
			}
			if got := s.obs.queryTime.Count() - samples; got != 1 {
				t.Errorf("gradoop_query_duration_seconds gained %d samples, want 1", got)
			}
			if got := st.Records() - records; got != 1 || after.QStoreRecords != before.QStoreRecords+1 {
				t.Fatalf("store gained %d records, want 1", got)
			}
			_, recs, ok := st.Fingerprint(qstore.QueryFingerprint(CanonicalQuery(row.req.Query)))
			if !ok || len(recs) == 0 {
				t.Fatal("no record under the request's fingerprint")
			}
			rec := recs[len(recs)-1]
			if rec.Outcome != row.outcome || rec.ElapsedNs <= 0 || rec.Bucket != qstore.SelectivityBucket(rec.Rows) {
				t.Errorf("record %+v, want outcome %q", rec, row.outcome)
			}
			if row.check != nil {
				row.check(t, s, resp, rec)
			}
		})
	}
}

// TestMemoryKillRecorded: a budget kill is settled like any other exit, with
// outcome memory-kill and the charged bytes.
func TestMemoryKillRecorded(t *testing.T) {
	s, st := qstoreSession(t, t.TempDir(), Options{MemoryBudget: 4 << 10})
	defer st.Close()
	q := `MATCH (a:Person),(b:Person),(c:Person),(d:Person) RETURN a, b, c, d`
	_, err := s.Execute(Request{Query: q})
	if KindOf(err) != KindMemoryBudget {
		t.Fatalf("want memory-budget kill, got %v", err)
	}
	agg, recs, ok := st.Fingerprint(qstore.QueryFingerprint(CanonicalQuery(q)))
	if !ok || agg.Outcomes["memory-kill"] != 1 {
		t.Fatalf("memory kill not recorded: ok=%v outcomes=%v", ok, agg.Outcomes)
	}
	if len(recs) != 1 || recs[0].MemBytes <= 0 {
		t.Fatalf("kill record missing materialized bytes: %+v", recs)
	}
}

// TestTracedRunRecordsOps: a traced execution persists the per-operator
// metrics in the same schema /analyze serves.
func TestTracedRunRecordsOps(t *testing.T) {
	s, st := qstoreSession(t, t.TempDir(), Options{})
	defer st.Close()
	q := `MATCH (a:Person)-[:knows]->(b:Person) RETURN a.name`
	resp, err := s.Execute(Request{Query: q, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	wantOps := resp.Result.AnalyzedOps()
	if len(wantOps) == 0 {
		t.Fatal("traced run has no analyzed ops")
	}
	_, recs, ok := st.Fingerprint(qstore.QueryFingerprint(CanonicalQuery(q)))
	if !ok || len(recs) != 1 {
		t.Fatalf("want 1 record, got ok=%v recs=%d", ok, len(recs))
	}
	if !reflect.DeepEqual(recs[0].Ops, wantOps) {
		t.Fatalf("persisted ops differ from /analyze ops:\nrec: %+v\nlive: %+v", recs[0].Ops, wantOps)
	}
	// Untraced runs carry no per-op data (no collector ran).
	if _, err := s.Execute(Request{Query: q + " "}); err != nil {
		t.Fatal(err)
	}
}

// sortedRows renders a response's rows as sorted JSON strings so two runs
// with different worker interleavings compare equal.
func sortedRows(t *testing.T, r *Response) []string {
	t.Helper()
	var rows []json.RawMessage
	if err := json.Unmarshal(rowsOf(t, r), &rows); err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(rows))
	for i, row := range rows {
		out[i] = string(row)
	}
	sort.Strings(out)
	return out
}

// TestQStoreParity pins the off switch: with no store configured the
// session behaves identically — same responses, same metrics — and
// Metrics' qstore fields stay zero.
func TestQStoreParity(t *testing.T) {
	dir := t.TempDir()
	plain := New(testGraph(2), Options{})
	st, err := qstore.Open(qstore.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	stored := New(testGraph(2), Options{QueryStore: st})

	queries := []string{
		`MATCH (a:Person)-[:knows]->(b:Person) RETURN a.name, b.name`,
		`MATCH (a:Person)-[:knows]->(b:Person) RETURN a.name, b.name`, // cache hit
		`MATCH (u:University)<-[:studyAt]-(s:Person) RETURN s.name`,
		`MATCH (((`, // invalid
	}
	for _, q := range queries {
		r1, err1 := plain.Execute(Request{Query: q})
		r2, err2 := stored.Execute(Request{Query: q})
		if (err1 == nil) != (err2 == nil) || KindOf(err1) != KindOf(err2) {
			t.Fatalf("error divergence for %q: %v vs %v", q, err1, err2)
		}
		if err1 != nil {
			continue
		}
		// Row order is nondeterministic across runs; compare as sorted sets.
		if r1.Count != r2.Count || !reflect.DeepEqual(sortedRows(t, r1), sortedRows(t, r2)) ||
			r1.PlanCacheHit != r2.PlanCacheHit || r1.FromResultCache != r2.FromResultCache {
			t.Fatalf("response divergence for %q", q)
		}
	}
	m1, m2 := plain.Metrics(), stored.Metrics()
	if m1.QStoreRecords != 0 || m1.QStoreTotal != 0 || m1.QStoreBytes != 0 {
		t.Fatalf("disabled session reports qstore activity: %+v", m1)
	}
	if m2.QStoreRecords != int64(len(queries)) || m2.QStoreTotal != int64(len(queries)) {
		t.Fatalf("stored session records = %d/%d, want %d", m2.QStoreRecords, m2.QStoreTotal, len(queries))
	}
	// Everything except the qstore fields matches.
	m2.QStoreRecords, m2.QStoreTotal, m2.QStoreBytes, m2.QStoreRegressions = 0, 0, 0, 0
	m2.QStoreSegments, m2.QStoreFingerprints, m2.QStoreDrops = 0, 0, 0
	m1.Cluster, m2.Cluster = m1.Cluster.Clone(), m1.Cluster.Clone() // wall times differ per run
	b1, _ := json.Marshal(m1)
	b2, _ := json.Marshal(m2)
	if string(b1) != string(b2) {
		t.Fatalf("metrics divergence:\noff: %s\non:  %s", b1, b2)
	}
}

// TestSessionRestartReproducesAggregates is the end-to-end half of the
// recovery criterion: records written through real executions rebuild the
// same aggregates when a fresh store opens the same directory.
func TestSessionRestartReproducesAggregates(t *testing.T) {
	dir := t.TempDir()
	s, st := qstoreSession(t, dir, Options{})
	queries := []string{
		`MATCH (a:Person)-[:knows]->(b:Person) RETURN a.name, b.name`,
		`MATCH (u:University)<-[:studyAt]-(s:Person) RETURN s.name`,
		`MATCH (a:Person) RETURN a.name`,
	}
	for i := 0; i < 4; i++ {
		for _, q := range queries {
			if _, err := s.Execute(Request{Query: q}); err != nil {
				t.Fatal(err)
			}
		}
	}
	before, err := json.Marshal(st.Top(qstore.SortFrequent, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := qstore.Open(qstore.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	after, err := json.Marshal(st2.Top(qstore.SortFrequent, 0))
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatalf("restart changed aggregates:\nbefore: %s\nafter:  %s", before, after)
	}
}
