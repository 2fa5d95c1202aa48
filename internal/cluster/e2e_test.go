package cluster_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"gradoop/internal/dataflow"
	"gradoop/internal/ldbc"
	csvstore "gradoop/internal/storage/csv"
)

// TestClusterE2E is the multi-process smoke: it builds the real cypherd and
// cypherworker binaries, writes an LDBC dataset to disk, spawns a
// coordinator plus two worker OS processes, and drives oracle queries over
// HTTP. One worker is armed to crash mid-query (its first collective, in
// Q3's first key set); the response must still be bit-identical to a plain
// single-process cypherd, with the recovery visible in the cluster report.
//
// Gated behind CLUSTER_E2E=1 (it compiles binaries and spawns processes);
// `make cluster-smoke` runs it.
func TestClusterE2E(t *testing.T) {
	if os.Getenv("CLUSTER_E2E") == "" {
		t.Skip("set CLUSTER_E2E=1 to run the multi-process smoke (builds binaries, spawns OS processes)")
	}

	bin := t.TempDir()
	for _, pkg := range []string{"cypherd", "cypherworker"} {
		out, err := exec.Command("go", "build", "-o", filepath.Join(bin, pkg), "gradoop/cmd/"+pkg).CombinedOutput()
		if err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}

	// The dataset both cypherd processes and every worker load.
	dataDir := filepath.Join(t.TempDir(), "graph")
	env := dataflow.NewEnv(dataflow.DefaultConfig(4))
	d := ldbc.Generate(env, ldbc.Config{ScaleFactor: 0.05, Seed: 7})
	if err := csvstore.WriteLogicalGraph(d.Graph, dataDir); err != nil {
		t.Fatal(err)
	}

	refAddr := freeAddr(t)
	clusterAddr := freeAddr(t)
	w0Addr := freeAddr(t)
	w1Addr := freeAddr(t)

	// Reference: the plain in-process engine.
	spawn(t, filepath.Join(bin, "cypherd"), "-graph", dataDir, "-addr", refAddr)

	// Workers first (the coordinator dials them at startup). w1 is armed to
	// crash on its first collective exchange — mid-query, from the
	// coordinator's point of view, on the first query that shuffles.
	spawn(t, filepath.Join(bin, "cypherworker"), "-graph", dataDir, "-addr", w0Addr, "-node", "w0")
	spawn(t, filepath.Join(bin, "cypherworker"), "-graph", dataDir, "-addr", w1Addr, "-node", "w1", "-fail-after", "1")
	waitTCP(t, w0Addr)
	waitTCP(t, w1Addr)

	spawn(t, filepath.Join(bin, "cypherd"), "-graph", dataDir, "-addr", clusterAddr,
		"-cluster", w0Addr+","+w1Addr)

	waitHealthy(t, refAddr)
	waitHealthy(t, clusterAddr)

	// The first query, whose first collective crashes w1, is Q3 at the
	// dataset's most common first name: its closing join runs its right
	// input first and hands key sets both ways, and its first collective is
	// the all-gather of the person leaf's keys.
	common, _, _ := d.FirstNamesBySelectivity()
	const twoHop = `MATCH (p1:Person)-[:knows]->(p2:Person), (p2)-[:knows]->(p3:Person) RETURN *`
	queries := []struct {
		name    string
		query   string
		shuffle bool // expected to crash w1 and recover
	}{
		{"q3", `MATCH (p1:Person)-[:knows]->(p2:Person), (p2)<-[:hasCreator]-(comment:Comment),
      (comment)-[:replyOf*1..10]->(post:Post), (post)-[:hasCreator]->(p1)
WHERE p1.firstName = '` + common + `'
RETURN p1.firstName, p1.lastName, p2.firstName, p2.lastName, post.content`, true},
		{"twohop", twoHop, false},
		{"scan", `MATCH (p:Person) RETURN *`, false},
		{"expand", `MATCH (p:Person)-[:knows]->(q:Person) RETURN *`, false},
	}
	for _, q := range queries {
		ref := postQuery(t, refAddr, q.query)
		got := postQuery(t, clusterAddr, q.query)
		if got.Count != ref.Count || ref.Count == 0 {
			t.Fatalf("%s: count %d, single-process %d", q.name, got.Count, ref.Count)
		}
		if !reflect.DeepEqual(got.Rows, ref.Rows) {
			t.Fatalf("%s: distributed rows differ from single-process rows", q.name)
		}
		if !reflect.DeepEqual(got.Columns, ref.Columns) {
			t.Fatalf("%s: columns %v != %v", q.name, got.Columns, ref.Columns)
		}
		if got.Cluster == nil {
			t.Fatalf("%s: missing cluster report", q.name)
		}
		if q.shuffle {
			// The armed worker died mid-exchange; the job must have re-run
			// on the survivor and still matched the reference above.
			if !got.Cluster.Recovered || got.Cluster.Attempts < 2 {
				t.Fatalf("%s: expected mid-query recovery, report %+v", q.name, got.Cluster)
			}
		} else {
			// Post-recovery queries run clean on the shrunken roster.
			if got.Cluster.Recovered || got.Cluster.Attempts != 1 || got.Cluster.Workers != 1 {
				t.Fatalf("%s: expected clean one-worker attempt, report %+v", q.name, got.Cluster)
			}
		}
		t.Logf("%s: %d rows, workers=%d attempts=%d recovered=%v",
			q.name, got.Count, got.Cluster.Workers, got.Cluster.Attempts, got.Cluster.Recovered)
	}

	// Observability smoke: a fresh 2-worker cluster (no armed crash) checks
	// the telemetry plane end to end across real OS processes — the merged
	// Chrome trace with one lane per worker, the federated /metrics scrape
	// and the /cluster/workers roster.
	obsAddr := freeAddr(t)
	w2Addr := freeAddr(t)
	w3Addr := freeAddr(t)
	spawn(t, filepath.Join(bin, "cypherworker"), "-graph", dataDir, "-addr", w2Addr, "-node", "w2")
	spawn(t, filepath.Join(bin, "cypherworker"), "-graph", dataDir, "-addr", w3Addr, "-node", "w3")
	waitTCP(t, w2Addr)
	waitTCP(t, w3Addr)
	spawn(t, filepath.Join(bin, "cypherd"), "-graph", dataDir, "-addr", obsAddr,
		"-cluster", w2Addr+","+w3Addr)
	waitHealthy(t, obsAddr)

	traced := postQueryTraced(t, obsAddr, twoHop)
	if traced.Cluster == nil || traced.Cluster.TraceID == "" {
		t.Fatal("traced query returned no cluster trace ID")
	}
	if len(traced.ChromeTrace.TraceEvents) == 0 {
		t.Fatal("traced query returned no merged Chrome trace")
	}
	if traced.ChromeTrace.Metadata["traceId"] != traced.Cluster.TraceID {
		t.Fatalf("trace metadata %q != report trace ID %q",
			traced.ChromeTrace.Metadata["traceId"], traced.Cluster.TraceID)
	}
	lanes := map[string]bool{}
	for _, ev := range traced.ChromeTrace.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			lanes[fmt.Sprint(ev.Args["name"])] = true
		}
	}
	if len(lanes) != 3 || !lanes["coordinator"] || !lanes["worker w2"] || !lanes["worker w3"] {
		t.Fatalf("merged trace lanes %v, want coordinator + worker w2 + worker w3", lanes)
	}
	for _, st := range traced.Cluster.Stages {
		if len(st.WorkerNs) != 2 {
			t.Fatalf("stage %d: per-worker attribution %v, want 2 entries", st.Stage, st.WorkerNs)
		}
		var max int64
		for _, ns := range st.WorkerNs {
			if ns > max {
				max = ns
			}
		}
		if max != st.Actual {
			t.Fatalf("stage %d: max worker time %d != merged actual %d", st.Stage, max, st.Actual)
		}
	}
	t.Logf("trace %s: %d events, lanes %v", traced.Cluster.TraceID, len(traced.ChromeTrace.TraceEvents), lanes)

	// Federated scrape: the coordinator's exposition carries per-worker
	// labeled series for the whole roster, structurally valid throughout.
	exp := getBody(t, obsAddr, "/metrics")
	for _, want := range []string{
		"gradoop_cluster_jobs_total ",
		"gradoop_cluster_live_workers 2",
		`gradoop_cluster_worker_jobs_total{worker="w2"}`,
		`gradoop_cluster_worker_jobs_total{worker="w3"}`,
		`gradoop_cluster_worker_registry_snapshots_total{worker="w2"}`,
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("federated /metrics missing %q", want)
		}
	}
	for _, line := range strings.Split(strings.TrimRight(exp, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if strings.HasPrefix(line, "#") || !strings.Contains(line, " ") {
			t.Errorf("bad exposition line %q", line)
		}
	}

	var roster struct {
		Count   int `json:"count"`
		Workers []struct {
			Node  string `json:"node"`
			Alive bool   `json:"alive"`
			Jobs  int64  `json:"jobs"`
		} `json:"workers"`
	}
	if err := json.Unmarshal([]byte(getBody(t, obsAddr, "/cluster/workers")), &roster); err != nil {
		t.Fatalf("/cluster/workers does not parse: %v", err)
	}
	if roster.Count != 2 {
		t.Fatalf("/cluster/workers count=%d want 2", roster.Count)
	}
	for _, w := range roster.Workers {
		if !w.Alive || w.Jobs < 1 {
			t.Fatalf("roster entry %+v, want alive with jobs", w)
		}
	}
	t.Logf("observability smoke: federated scrape %d bytes, roster %d workers", len(exp), roster.Count)
}

// e2eResponse is the subset of the server's query response the smoke
// asserts on.
type e2eResponse struct {
	Columns []string `json:"columns"`
	Rows    [][]any  `json:"rows"`
	Count   int64    `json:"count"`
	Cluster *struct {
		Workers   int  `json:"workers"`
		Attempts  int  `json:"attempts"`
		Recovered bool `json:"recovered"`
	} `json:"cluster"`
}

// e2eTracedResponse adds the observability surface: the merged Chrome
// trace and the report's telemetry fields.
type e2eTracedResponse struct {
	Cluster *struct {
		TraceID string `json:"traceId"`
		Stages  []struct {
			Stage    int     `json:"stage"`
			Actual   int64   `json:"actualNs"`
			WorkerNs []int64 `json:"workerNs"`
			Skew     float64 `json:"skew"`
		} `json:"stages"`
	} `json:"cluster"`
	ChromeTrace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		Metadata map[string]string `json:"metadata"`
	} `json:"chromeTrace"`
}

func postQueryTraced(t *testing.T, addr, query string) *e2eTracedResponse {
	t.Helper()
	body, err := json.Marshal(map[string]any{"query": query, "trace": true})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+addr+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /query: %v", err)
	}
	defer resp.Body.Close()
	var out e2eTracedResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode traced /query response: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /query: status %d", resp.StatusCode)
	}
	return &out
}

// getBody fetches a path and returns the body as a string.
func getBody(t *testing.T, addr, path string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	return sb.String()
}

func postQuery(t *testing.T, addr, query string) *e2eResponse {
	t.Helper()
	body, err := json.Marshal(map[string]any{"query": query})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+addr+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /query: %v", err)
	}
	defer resp.Body.Close()
	var out e2eResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode /query response: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /query: status %d", resp.StatusCode)
	}
	return &out
}

// spawn starts a binary, streams its stderr into the test log and kills it
// at cleanup.
func spawn(t *testing.T, path string, args ...string) {
	t.Helper()
	cmd := exec.Command(path, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", filepath.Base(path), err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
		if t.Failed() && stderr.Len() > 0 {
			t.Logf("%s %s stderr:\n%s", filepath.Base(path), strings.Join(args, " "), stderr.String())
		}
	})
}

// freeAddr reserves a loopback port by listening and closing.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func waitTCP(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			conn.Close()
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("%s never started listening", addr)
}

func waitHealthy(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(fmt.Sprintf("http://%s/healthz", addr))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("%s never became healthy", addr)
}
