package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"gradoop/internal/obs"
	"gradoop/internal/qstore"
	"gradoop/internal/session"
)

// newQStoreServer wires registry, query store and session together the way
// cypherd -qstore-dir does.
func newQStoreServer(t *testing.T, opts session.Options) (*httptest.Server, *qstore.Store) {
	t.Helper()
	r := obs.NewRegistry()
	st, err := qstore.Open(qstore.Options{Dir: t.TempDir(), Metrics: r})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	opts.Metrics = r
	opts.QueryStore = st
	ts := httptest.NewServer(New(session.New(testGraph(), opts), Config{Metrics: r}))
	t.Cleanup(ts.Close)
	return ts, st
}

func getJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode, out
}

// TestAnalyzePersistsWhatItServes: with a store configured, the operators
// /analyze returns and the ones the execution's record persists are the same
// profile, field for field.
func TestAnalyzePersistsWhatItServes(t *testing.T) {
	ts, st := newQStoreServer(t, session.Options{})
	const q = "MATCH (a:Person)-[:knows]->(b) RETURN a.name"
	resp, out := postJSON(t, ts.URL+"/analyze", map[string]any{"query": q})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status=%d body=%v", resp.StatusCode, out)
	}
	served, err := json.Marshal(out["operators"])
	if err != nil {
		t.Fatal(err)
	}
	_, recs, ok := st.Fingerprint(qstore.QueryFingerprint(session.CanonicalQuery(q)))
	if !ok || len(recs) != 1 || len(recs[0].Ops) == 0 {
		t.Fatalf("no analyzed record: ok=%v records=%d", ok, len(recs))
	}
	var viaJSON any // the served form went through a decoder: send the record's the same way
	persisted, _ := json.Marshal(recs[0].Ops)
	if err := json.Unmarshal(persisted, &viaJSON); err != nil {
		t.Fatal(err)
	}
	if persisted, _ = json.Marshal(viaJSON); string(persisted) != string(served) {
		t.Errorf("persisted operators differ from the served ones:\nserved:    %s\npersisted: %s", served, persisted)
	}
}

// TestQStoreEndpoints drives a mixed workload and validates the JSON shape
// of /querystore/top, /querystore/fingerprint/{id} and
// /querystore/regressions — the same checks CI's server-smoke runs with
// curl.
func TestQStoreEndpoints(t *testing.T) {
	ts, _ := newQStoreServer(t, session.Options{})
	queries := []string{
		"MATCH (a:Person)-[:knows]->(b) RETURN a.name, b.name",
		"MATCH (a:Person) RETURN a.name",
		"MATCH (a:Person)-[:knows]->(b)-[:knows]->(c) RETURN a.name, c.name",
	}
	for i := 0; i < 3; i++ {
		for _, q := range queries {
			postJSON(t, ts.URL+"/query", map[string]any{"query": q})
		}
	}
	postJSON(t, ts.URL+"/query", map[string]any{"query": "MATCH ((("}) // invalid

	status, out := getJSON(t, ts.URL+"/querystore/top?sort=frequent&limit=2")
	if status != http.StatusOK {
		t.Fatalf("top status=%d body=%v", status, out)
	}
	if out["sort"] != "frequent" {
		t.Fatalf("sort=%v", out["sort"])
	}
	fps := out["fingerprints"].([]any)
	if len(fps) != 2 || out["count"].(float64) != 2 {
		t.Fatalf("limit not applied: count=%v len=%d", out["count"], len(fps))
	}
	first := fps[0].(map[string]any)
	for _, key := range []string{"fingerprint", "query", "count", "p50Ns", "p95Ns", "p99Ns", "outcomes"} {
		if _, ok := first[key]; !ok {
			t.Errorf("top entry missing %q: %v", key, first)
		}
	}
	// Every query ran 3 times, so "frequent" ties at 3 per fingerprint.
	if first["count"].(float64) != 3 {
		t.Fatalf("top frequent count=%v want 3", first["count"])
	}

	fp := first["fingerprint"].(string)
	status, out = getJSON(t, ts.URL+"/querystore/fingerprint/"+fp)
	if status != http.StatusOK {
		t.Fatalf("fingerprint status=%d body=%v", status, out)
	}
	agg := out["aggregate"].(map[string]any)
	if agg["fingerprint"] != fp {
		t.Fatalf("aggregate fingerprint=%v want %s", agg["fingerprint"], fp)
	}
	recs := out["records"].([]any)
	if len(recs) != 3 {
		t.Fatalf("records=%d want 3", len(recs))
	}
	rec := recs[0].(map[string]any)
	for _, key := range []string{"t", "fingerprint", "planHash", "outcome", "rows", "elapsedNs", "bucket"} {
		if _, ok := rec[key]; !ok {
			t.Errorf("record missing %q: %v", key, rec)
		}
	}

	status, out = getJSON(t, ts.URL+"/querystore/regressions")
	if status != http.StatusOK {
		t.Fatalf("regressions status=%d", status)
	}
	if _, ok := out["count"].(float64); !ok {
		t.Fatalf("regressions count missing: %v", out)
	}
	if _, ok := out["onsets"].(float64); !ok {
		t.Fatalf("regressions onsets missing: %v", out)
	}
	if _, ok := out["regressions"].([]any); !ok {
		t.Fatalf("regressions list missing: %v", out)
	}
}

// TestQStoreEndpointValidation: bad sort and bad limit are 400; unknown
// fingerprints and path abuse are 404/400.
func TestQStoreEndpointValidation(t *testing.T) {
	ts, _ := newQStoreServer(t, session.Options{})
	for url, want := range map[string]int{
		"/querystore/top?sort=fastest":            http.StatusBadRequest,
		"/querystore/top?limit=0":                 http.StatusBadRequest,
		"/querystore/top?limit=x":                 http.StatusBadRequest,
		"/querystore/top":                         http.StatusOK,
		"/querystore/fingerprint/":                http.StatusBadRequest,
		"/querystore/fingerprint/deadbeef":        http.StatusNotFound,
		"/querystore/fingerprint/a/b":             http.StatusBadRequest,
		"/querystore/regressions":                 http.StatusOK,
		"/querystore/top?sort=qerror&limit=10000": http.StatusOK,
	} {
		status, out := getJSON(t, ts.URL+url)
		if status != want {
			t.Errorf("%s: status=%d want %d (%v)", url, status, want, out)
		}
	}
}

// TestQStoreDisabled404: without a configured store every /querystore
// endpoint answers a structured 404.
func TestQStoreDisabled404(t *testing.T) {
	ts := newTestServer(t, session.Options{})
	for _, url := range []string{
		"/querystore/top", "/querystore/fingerprint/abc", "/querystore/regressions",
	} {
		status, out := getJSON(t, ts.URL+url)
		if status != http.StatusNotFound {
			t.Errorf("%s: status=%d want 404", url, status)
		}
		if msg, _ := out["error"].(string); !strings.Contains(msg, "qstore-dir") {
			t.Errorf("%s: error %q does not say how to enable the store", url, msg)
		}
	}
}

// TestAnalyzeOperators: /analyze carries the structured per-operator array
// in the query-store record schema alongside the text rendering, and the
// top-level materialized-bytes total.
func TestAnalyzeOperators(t *testing.T) {
	ts := newTestServer(t, session.Options{})
	resp, out := postJSON(t, ts.URL+"/analyze",
		map[string]any{"query": "MATCH (a:Person)-[:knows]->(b) RETURN a.name"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status=%d body=%v", resp.StatusCode, out)
	}
	ops, ok := out["operators"].([]any)
	if !ok || len(ops) == 0 {
		t.Fatalf("operators missing or empty: %v", out["operators"])
	}
	// The text plan and the structured array describe the same tree.
	if lines := len(strings.Split(strings.TrimRight(out["analyzedPlan"].(string), "\n"), "\n")); len(ops) != lines {
		t.Errorf("operators=%d lines=%d — schemas diverged", len(ops), lines)
	}
	root := ops[0].(map[string]any)
	for _, key := range []string{"op", "depth", "act"} {
		if _, ok := root[key]; !ok {
			t.Errorf("operator entry missing %q: %v", key, root)
		}
	}
	if _, ok := out["memBytes"].(float64); !ok {
		t.Fatalf("memBytes missing: %v", out)
	}
}

// TestQStoreTopUnderLiveTraffic hammers /query while polling
// /querystore/top and /querystore/regressions — the -race half of the
// crash-safety satellite: aggregates are read while the writer appends.
func TestQStoreTopUnderLiveTraffic(t *testing.T) {
	ts, _ := newQStoreServer(t, session.Options{NoResultCache: true})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				postJSONNoFatal(t, ts.URL+"/query", map[string]any{
					"query": "MATCH (a:Person)-[:knows]->(b) RETURN a.name, b.name"})
			}
		}()
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if status, _ := getJSON(t, ts.URL+"/querystore/top?sort=slowest"); status != http.StatusOK {
					t.Errorf("top status=%d", status)
				}
				if status, _ := getJSON(t, ts.URL+"/querystore/regressions"); status != http.StatusOK {
					t.Errorf("regressions status=%d", status)
				}
			}
		}()
	}
	wg.Wait()
	status, out := getJSON(t, ts.URL+"/querystore/top?sort=frequent&limit=1")
	if status != http.StatusOK {
		t.Fatalf("final top status=%d", status)
	}
	if n := out["fingerprints"].([]any)[0].(map[string]any)["count"].(float64); n != 75 {
		t.Fatalf("aggregate count=%v want 75", n)
	}
}

// sessionSeriesJSON maps every session-owned Prometheus family to its
// /metrics.json field. TestMetricsJSONCoversExposition fails when a series
// appears in the exposition without an entry here — new telemetry must
// either gain a JSON twin or be exempted explicitly below.
var sessionSeriesJSON = map[string]string{
	"gradoop_queries_total":               "queries",
	"gradoop_query_errors_total":          "invalid", // partitioned: rejected/timeouts/invalid/failed/memoryKilled
	"gradoop_slow_queries_total":          "slowQueries",
	"gradoop_plan_cache_total":            "planHits",
	"gradoop_result_cache_total":          "resultHits",
	"gradoop_plan_cache_entries":          "planEntries",
	"gradoop_result_cache_entries":        "resultEntries",
	"gradoop_result_cache_bytes":          "resultBytes",
	"gradoop_admission_queue_depth":       "queued",
	"gradoop_inflight_queries":            "inFlight",
	"gradoop_mem_budget_bytes":            "memBudget",
	"gradoop_mem_reserved_bytes":          "memReserved",
	"gradoop_mem_kills_total":             "memKills",
	"gradoop_mem_sheds_total":             "memSheds",
	"gradoop_mem_brownouts_total":         "memBrownouts",
	"gradoop_qstore_records_total":        "qstoreTotalRecords",
	"gradoop_qstore_regressions":          "qstoreRegressions",
	"gradoop_qstore_bytes":                "qstoreBytes",
	"gradoop_qstore_segments":             "qstoreSegments",
	"gradoop_qstore_fingerprints":         "qstoreFingerprints",
	"gradoop_qstore_dropped_writes_total": "qstoreDroppedWrites",
}

// expositionExempt lists families that intentionally have no scalar JSON
// twin: latency histograms (quantiles don't reduce to one number), engine
// internals aggregated under "cluster", and the server's own HTTP series.
var expositionExempt = map[string]bool{
	"gradoop_query_duration_seconds": true,
	"gradoop_admission_wait_seconds": true,
	"gradoop_stage_duration_seconds": true,
	"gradoop_stages_total":           true,
	"gradoop_http_requests_total":    true,
	"gradoop_http_request_seconds":   true,
	// Engine totals served inside /metrics.json's "cluster" object.
	"gradoop_spill_bytes_total":   true,
	"gradoop_shuffle_bytes_total": true,
	"gradoop_stage_retries_total": true,
	// Coordinator instruments: distributed-execution and telemetry-plane
	// counters scraped via Prometheus, surfaced to humans through /analyze
	// and /cluster/workers rather than /metrics.json.
	"gradoop_cluster_jobs_total":               true,
	"gradoop_cluster_recoveries_total":         true,
	"gradoop_cluster_worker_losses_total":      true,
	"gradoop_cluster_attempts":                 true,
	"gradoop_cluster_job_seconds":              true,
	"gradoop_cluster_wire_bytes_total":         true,
	"gradoop_cluster_stage_predicted_ns_total": true,
	"gradoop_cluster_stage_actual_ns_total":    true,
	"gradoop_cluster_telemetry_frames_total":   true,
	"gradoop_cluster_telemetry_bytes_total":    true,
	"gradoop_cluster_telemetry_dropped_total":  true,
	"gradoop_cluster_partial_telemetry_total":  true,
	"gradoop_cluster_live_workers":             true,
	// Federated worker series: each worker's gradoop_* families re-rooted
	// under gradoop_cluster_ and labeled per worker by the /metrics
	// federation. Remote state by design — never mirrored into the
	// coordinator's own /metrics.json.
	"gradoop_cluster_worker_jobs_total":              true,
	"gradoop_cluster_worker_job_failures_total":      true,
	"gradoop_cluster_worker_job_seconds":             true,
	"gradoop_cluster_worker_telemetry_bytes_total":   true,
	"gradoop_cluster_worker_telemetry_bundles_total": true,
	"gradoop_cluster_stage_duration_seconds":         true,
	"gradoop_cluster_stages_total":                   true,
	"gradoop_cluster_shuffle_bytes_total":            true,
	"gradoop_cluster_spill_bytes_total":              true,
	"gradoop_cluster_stage_retries_total":            true,
}

// TestMetricsJSONCoversExposition scrapes /metrics after a workload that
// touches every subsystem (queries, errors, caches, query store) and
// asserts each exposition family either maps to a present /metrics.json
// field or is explicitly exempted. This is the audit that keeps the JSON
// snapshot from silently lagging the exposition.
func TestMetricsJSONCoversExposition(t *testing.T) {
	ts, _ := newQStoreServer(t, session.Options{})
	body := map[string]any{"query": "MATCH (a:Person)-[:knows]->(b) RETURN a.name"}
	postJSON(t, ts.URL+"/query", body)
	postJSON(t, ts.URL+"/query", body)
	postJSON(t, ts.URL+"/query", map[string]any{"query": "MATCH ((("})
	auditExpositionCoverage(t, ts)
}

// auditExpositionCoverage scrapes a server's /metrics and asserts every
// family either maps to a present /metrics.json field or is explicitly
// exempted. Shared by the plain audit above and the cluster-backed audit,
// whose exposition adds the coordinator and federated worker families.
func auditExpositionCoverage(t *testing.T, ts *httptest.Server) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := copyAll(&sb, resp); err != nil {
		t.Fatal(err)
	}
	families := map[string]bool{}
	for _, line := range strings.Split(sb.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(name, "{ "); i >= 0 {
			name = name[:i]
		}
		// Fold histogram sub-series onto their family name.
		for _, suffix := range []string{"_count", "_sum"} {
			if base := strings.TrimSuffix(name, suffix); base != name {
				if sessionSeriesJSON[base] != "" || expositionExempt[base] {
					name = base
				}
			}
		}
		families[name] = true
	}
	if len(families) == 0 {
		t.Fatal("empty exposition")
	}

	_, mjson := getJSON(t, ts.URL+"/metrics.json")
	for fam := range families {
		if expositionExempt[fam] {
			continue
		}
		field, ok := sessionSeriesJSON[fam]
		if !ok {
			t.Errorf("exposition family %s has no /metrics.json mapping — add a JSON field or exempt it", fam)
			continue
		}
		if _, present := mjson[field]; !present {
			t.Errorf("family %s maps to JSON field %q which /metrics.json does not serve", fam, field)
		}
	}
	// And the reverse sanity check: mapped fields actually exist.
	for fam, field := range sessionSeriesJSON {
		if _, present := mjson[field]; !present {
			t.Errorf("mapping for %s points at missing JSON field %q", fam, field)
		}
	}
}
