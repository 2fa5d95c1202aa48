package server

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gradoop/internal/cluster"
	"gradoop/internal/obs"
	"gradoop/internal/session"
)

// newClusterTestServer fronts the HTTP server with a 2-worker cluster the
// way `cypherd -cluster` does: the coordinator's instruments share the
// server registry, each worker ships telemetry from its own registry, and
// the session routes execution through the coordinator.
func newClusterTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	r := obs.NewRegistry()
	addrs := startTwoWorkers(t, session.NewGraphData(testGraph()))
	coord, err := cluster.NewCoordinator(addrs, cluster.Options{Workers: 4, Metrics: r})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	ts := httptest.NewServer(New(
		session.New(testGraph(), session.Options{Workers: 4, Remote: coord, Metrics: r}),
		Config{Metrics: r}))
	t.Cleanup(ts.Close)
	return ts
}

// startTwoWorkers serves data from two in-process workers, w0 and w1, each
// shipping telemetry from a registry of its own, and returns their addresses.
func startTwoWorkers(t *testing.T, data *session.GraphData) []string {
	t.Helper()
	addrs := make([]string, 2)
	for i := range addrs {
		w := cluster.NewWorkerWith(fmt.Sprintf("w%d", i), data,
			cluster.WorkerOptions{Metrics: obs.NewRegistry()})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go w.Serve(ln)
		t.Cleanup(w.Close)
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

// TestClusterWorkersEndpoint: /cluster/workers serves the roster — node
// names, liveness, job counts and whether each worker ships telemetry.
func TestClusterWorkersEndpoint(t *testing.T) {
	ts := newClusterTestServer(t)
	postJSON(t, ts.URL+"/query", map[string]any{
		"query": "MATCH (a:Person)-[:knows]->(b) RETURN a.name, b.name"})

	code, out := getJSON(t, ts.URL+"/cluster/workers")
	if code != http.StatusOK {
		t.Fatalf("status=%d body=%v", code, out)
	}
	if out["count"].(float64) != 2 {
		t.Fatalf("count=%v want 2", out["count"])
	}
	seen := map[string]bool{}
	for _, item := range out["workers"].([]any) {
		w := item.(map[string]any)
		seen[w["node"].(string)] = true
		if w["alive"] != true {
			t.Fatalf("worker %v not alive", w["node"])
		}
		if w["jobs"].(float64) < 1 {
			t.Fatalf("worker %v ran %v jobs, want >=1", w["node"], w["jobs"])
		}
		if w["telemetry"] != true {
			t.Fatalf("worker %v shipped no telemetry", w["node"])
		}
	}
	if !seen["w0"] || !seen["w1"] {
		t.Fatalf("roster %v, want w0 and w1", seen)
	}
}

// TestClusterWorkersPlainSession: the endpoint 404s on an in-process
// session — it exists only where a cluster does.
func TestClusterWorkersPlainSession(t *testing.T) {
	ts := newTestServer(t, session.Options{})
	code, out := getJSON(t, ts.URL+"/cluster/workers")
	if code != http.StatusNotFound {
		t.Fatalf("status=%d body=%v, want 404", code, out)
	}
	if !strings.Contains(out["error"].(string), "not a cluster session") {
		t.Fatalf("error=%v", out["error"])
	}
}

// TestClusterFederatedMetrics: one scrape of the coordinator's /metrics
// covers the whole cluster — the coordinator's own series plus every
// worker's last-shipped snapshot re-rooted under gradoop_cluster_ and
// labeled per worker, all structurally valid text format 0.0.4.
func TestClusterFederatedMetrics(t *testing.T) {
	ts := newClusterTestServer(t)
	postJSON(t, ts.URL+"/query", map[string]any{
		"query": "MATCH (a:Person)-[:knows]->(b) RETURN a.name, b.name"})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := copyAll(&sb, resp); err != nil {
		t.Fatal(err)
	}
	exp := sb.String()
	checkExposition(t, exp)

	for _, want := range []string{
		"gradoop_cluster_jobs_total ",
		"gradoop_cluster_telemetry_frames_total ",
		"gradoop_cluster_live_workers 2",
		`gradoop_cluster_worker_jobs_total{worker="w0"}`,
		`gradoop_cluster_worker_jobs_total{worker="w1"}`,
		`gradoop_cluster_worker_telemetry_bundles_total{worker="w0"}`,
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("federated exposition missing %q", want)
		}
	}
	// One header per federated family even with two workers exposing it.
	if n := strings.Count(exp, "# TYPE gradoop_cluster_worker_jobs_total"); n != 1 {
		t.Errorf("federated family header repeated %d times", n)
	}
}

// TestMetricsJSONCoversExpositionCluster reruns the exposition audit with
// the cluster families present: every coordinator instrument and federated
// worker series must be explicitly exempted or mapped, so new cluster
// telemetry cannot silently appear without an audit decision.
func TestMetricsJSONCoversExpositionCluster(t *testing.T) {
	ts := newClusterTestServer(t)
	postJSON(t, ts.URL+"/query", map[string]any{
		"query": "MATCH (a:Person)-[:knows]->(b) RETURN a.name, b.name"})
	auditExpositionCoverage(t, ts)
}

// TestClusterQueryTrace: a traced query through the cluster returns the
// merged Chrome trace — a coordinator lane plus one process lane per
// worker — in place of the single-process trace.
func TestClusterQueryTrace(t *testing.T) {
	ts := newClusterTestServer(t)
	resp, out := postJSON(t, ts.URL+"/query", map[string]any{
		"query": "MATCH (a:Person)-[:knows]->(b) RETURN a.name, b.name",
		"trace": true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status=%d body=%v", resp.StatusCode, out)
	}
	raw, err := json.Marshal(out["chromeTrace"])
	if err != nil || string(raw) == "null" {
		t.Fatalf("no chromeTrace in response: %v", err)
	}
	var ct struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		Metadata map[string]string `json:"metadata"`
	}
	if err := json.Unmarshal(raw, &ct); err != nil {
		t.Fatalf("chromeTrace does not parse: %v", err)
	}
	if ct.Metadata["traceId"] == "" {
		t.Fatal("merged trace has no trace ID")
	}
	lanes := map[string]bool{}
	for _, ev := range ct.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			lanes[fmt.Sprint(ev.Args["name"])] = true
		}
	}
	if len(lanes) != 3 || !lanes["coordinator"] || !lanes["worker w0"] || !lanes["worker w1"] {
		t.Fatalf("trace lanes %v, want coordinator + worker w0 + worker w1", lanes)
	}

	// The cluster report rides along with skew attribution per stage.
	cl, ok := out["cluster"].(map[string]any)
	if !ok {
		t.Fatal("no cluster report in response")
	}
	if cl["traceId"] != ct.Metadata["traceId"] {
		t.Fatalf("report trace ID %v != trace metadata %v", cl["traceId"], ct.Metadata["traceId"])
	}
	for _, item := range cl["stages"].([]any) {
		st := item.(map[string]any)
		if ns, ok := st["workerNs"].([]any); !ok || len(ns) != 2 {
			t.Fatalf("stage %v missing per-worker attribution: %v", st["stage"], st["workerNs"])
		}
	}
}
