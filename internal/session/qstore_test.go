package session

import (
	"encoding/json"
	"errors"
	"reflect"
	"sort"
	"testing"
	"time"

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

// TestRecordPerExitPath drives one request down each session exit path and
// asserts every Execute call left exactly one record with the right
// outcome — the invariant the qstorerecord analyzer pins structurally.
func TestRecordPerExitPath(t *testing.T) {
	s, st := qstoreSession(t, t.TempDir(), Options{MaxConcurrent: 1, MaxQueued: 1})
	defer st.Close()
	execs := 0

	// ok (cold) and ok (result-cache hit).
	q := `MATCH (a:Person)-[:knows]->(b:Person) RETURN a.name, b.name`
	for i := 0; i < 2; i++ {
		execs++
		if _, err := s.Execute(Request{Query: q}); err != nil {
			t.Fatal(err)
		}
	}
	// invalid: empty query, then a parse error.
	execs++
	if _, err := s.Execute(Request{Query: "   "}); err == nil {
		t.Fatal("empty query succeeded")
	}
	execs++
	if _, err := s.Execute(Request{Query: "MATCH ((("}); err == nil {
		t.Fatal("bad query succeeded")
	}
	// rejected: slot and queue both occupied. Must be a query the result
	// cache has not seen — cached responses return before admission.
	rejectedQ := `MATCH (x:Person) RETURN x.name`
	s.gate.slots <- struct{}{}
	s.gate.waiting.Add(1)
	execs++
	if _, err := s.Execute(Request{Query: rejectedQ}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	s.gate.waiting.Add(-1)
	// timeout: deadline expires while queued (slot still occupied).
	timeoutQ := `MATCH (y:University) RETURN y.name`
	execs++
	if _, err := s.Execute(Request{Query: timeoutQ, Timeout: 20 * time.Millisecond}); KindOf(err) != KindTimeout {
		t.Fatalf("want timeout, got %v", err)
	}
	<-s.gate.slots

	if got := st.Records(); got != int64(execs) {
		t.Fatalf("store has %d records after %d Execute calls", got, execs)
	}
	for fp, want := range map[string]map[string]int64{
		qstore.QueryFingerprint(CanonicalQuery(rejectedQ)): {"rejected": 1},
		qstore.QueryFingerprint(CanonicalQuery(timeoutQ)):  {"timeout": 1},
	} {
		agg, _, ok := st.Fingerprint(fp)
		if !ok || !reflect.DeepEqual(agg.Outcomes, want) {
			t.Fatalf("fingerprint %s: ok=%v outcomes=%v, want %v", fp, ok, agg.Outcomes, want)
		}
	}
	agg, recs, ok := st.Fingerprint(qstore.QueryFingerprint(CanonicalQuery(q)))
	if !ok {
		t.Fatal("no aggregate for the canonical query")
	}
	// q's cold run and its result-cache hit share one fingerprint.
	if agg.Count != 2 {
		t.Fatalf("aggregate count = %d, want 2", agg.Count)
	}
	if !reflect.DeepEqual(agg.Outcomes, map[string]int64{"ok": 2}) {
		t.Fatalf("outcomes = %v, want 2 ok", agg.Outcomes)
	}
	// Cold run vs cache hit are distinguishable in the records.
	var cold, hit int
	for _, r := range recs {
		if r.Outcome != qstore.OutcomeOK {
			continue
		}
		if r.ResultCacheHit {
			hit++
		} else {
			cold++
			if r.PlanHash == "" {
				t.Error("cold ok record missing plan hash")
			}
			if r.RootQError <= 0 {
				t.Error("cold ok record missing root q-error")
			}
			if r.ExecNs <= 0 || r.ElapsedNs <= 0 {
				t.Errorf("cold ok record missing timings: %+v", r)
			}
		}
		if r.Bucket != qstore.SelectivityBucket(r.Rows) {
			t.Errorf("bucket %q does not match rows %d", r.Bucket, r.Rows)
		}
	}
	if cold != 1 || hit != 1 {
		t.Fatalf("cold=%d hit=%d, want 1/1", cold, hit)
	}
}

// TestMemoryKillRecorded: a budget kill exits through recordExit like any
// other path, with outcome memory-kill and the charged bytes.
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
	if err := json.Unmarshal(r.RowsJSON, &rows); err != nil {
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

// TestOutcomeOf maps every session error kind onto its store outcome.
func TestOutcomeOf(t *testing.T) {
	cases := map[Kind]qstore.Outcome{
		KindInvalid:      qstore.OutcomeInvalid,
		KindRejected:     qstore.OutcomeRejected,
		KindTimeout:      qstore.OutcomeTimeout,
		KindMemoryBudget: qstore.OutcomeMemoryKill,
		KindFailed:       qstore.OutcomeError,
	}
	for kind, want := range cases {
		if got := outcomeOf(&Error{Kind: kind, Err: errors.New("x")}); got != want {
			t.Errorf("outcomeOf(%v) = %v, want %v", kind, got, want)
		}
	}
	if got := outcomeOf(errors.New("unclassified")); got != qstore.OutcomeError {
		t.Errorf("unclassified error mapped to %v", got)
	}
}
