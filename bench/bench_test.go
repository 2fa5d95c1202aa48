package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"gradoop/internal/baseline"
	"gradoop/internal/cypher"
)

// smokeConfig is a workload at a fiftieth of its size: a 550-vertex graph,
// one request per class and round, a fraction of a second of timed phase.
func smokeConfig(t *testing.T, w workload) runConfig {
	w.perRound = 1
	return runConfig{
		workload: w, seed: 7, dataSeed: 2017, sf: 0.05, seconds: 0.2,
		cycles: 2, minRounds: 2, workdir: t.TempDir(),
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func checkMetrics(t *testing.T, doc *document, specs []metricSpec) {
	t.Helper()
	if !doc.Correct || doc.Failed != 0 || doc.Attempted == 0 {
		t.Errorf("%s: correct=%v, %d of %d operations failed: %s", doc.Workload, doc.Correct, doc.Failed, doc.Attempted, doc.FirstError)
	}
	if len(doc.Metrics) != len(specs) {
		t.Errorf("%s: %d metrics emitted, %d specified", doc.Workload, len(doc.Metrics), len(specs))
	}
	for _, s := range specs {
		m, ok := doc.Metrics[s.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not emitted", doc.Workload, s.Name)
		case m.Unit != s.Unit || m.Unit == "":
			t.Errorf("%s: metric %s has unit %q, want %q", doc.Workload, s.Name, m.Unit, s.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s is %v", doc.Workload, s.Name, m.Value)
		}
		if !nameRE.MatchString(s.Name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", s.Name)
		}
	}
	// The contract line must be one JSON object with the four keys.
	var line struct {
		Correct   *bool                      `json:"correct"`
		Attempted *int                       `json:"attempted"`
		Failed    *int                       `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(contractLine(doc)), &line); err != nil {
		t.Fatalf("contract line: %v", err)
	}
	if line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(specs) {
		t.Errorf("contract line is missing keys or metrics: %s", contractLine(doc))
	}
}

// TestSmokeAllWorkloads runs every workload, measured and traced, on a tiny
// graph and checks that each metric BENCHMARK.json names comes out once,
// with its unit and a finite value.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			doc, err := runWorkload(smokeConfig(t, w), false)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, doc, endToEndSpecs)
			if doc.LatencySamples != doc.Requests {
				t.Errorf("latency samples %d, timed requests %d", doc.LatencySamples, doc.Requests)
			}
			for _, name := range timingNames {
				if v, ok := doc.Info[name]; !ok || v <= 0 {
					t.Errorf("untraced run shows %s = %v", name, v)
				}
			}

			cfg := smokeConfig(t, w)
			doc, err = runWorkload(cfg, true)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, doc, perLayerSpecs)
			if m := doc.Metrics["cluster.attempts_per_req"]; m.Value != 1 {
				t.Errorf("cluster.attempts_per_req = %v, want 1", m.Value)
			}
			b, err := os.ReadFile(doc.SpanFile)
			if err != nil {
				t.Fatal(err)
			}
			var spans struct {
				TraceEvents []struct {
					Name string `json:"name"`
					Ph   string `json:"ph"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(b, &spans); err != nil {
				t.Fatalf("span file: %v", err)
			}
			seen := map[string]bool{}
			for _, e := range spans.TraceEvents {
				seen[e.Name] = true
			}
			for _, name := range []string{"http.roundtrip", "server.ServeHTTP", "session.Execute", "cypher.Parse",
				"cypher.BuildQueryGraphDeferred", "planner.Plan", "cypher.QueryGraph.Bind", "planner.Rebind",
				"dataflow.run", "core.Result.Rows"} {
				if !seen[name] {
					t.Errorf("span file has no %s span", name)
				}
			}
		})
	}
}

// TestReferencesAgreeWithOracle checks the harness's references against the
// brute-force matcher on a tiny graph.
func TestReferencesAgreeWithOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("the oracle is exponential in pattern size")
	}
	ds, err := makeDataset(t.TempDir(), 2017, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	oracle := baseline.NewReference(ds.graph)
	reqs, err := newRequests(allClasses, ds.Names)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		ref, err := computeReference(ds.graph, r)
		if err != nil {
			t.Fatal(err)
		}
		ast, err := cypher.Parse(r.query)
		if err != nil {
			t.Fatal(err)
		}
		qg, err := cypher.BuildQueryGraph(ast, r.params())
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(oracle.Count(qg, morphism)); ref.Count != want {
			t.Errorf("%s: reference count %d, oracle %d", r.class, ref.Count, want)
		}
	}
}

// TestCheckerCatchesFaults makes the run go wrong in the two ways the checker
// exists for. Each must raise ops_failed, contribute no latency sample for
// the failed requests, and make the command exit non-zero.
func TestCheckerCatchesFaults(t *testing.T) {
	for _, fault := range []string{"corrupt-ref", "non-200"} {
		t.Run(fault, func(t *testing.T) {
			w, _ := workloadByName("operational")
			cfg := smokeConfig(t, w)
			cfg.fault = fault
			dir := cfg.workdir
			var out bytes.Buffer
			if code := workloadProcess(cfg, false, &out); code == 0 {
				t.Errorf("exit code 0 with fault %s", fault)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Correct bool `json:"correct"`
				Failed  int  `json:"failed"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("last line: %v", err)
			}
			if last.Correct || last.Failed == 0 {
				t.Errorf("last line reports correct=%v failed=%d", last.Correct, last.Failed)
			}
			b, err := os.ReadFile(documentPath(dir, "operational", false))
			if err != nil {
				t.Fatal(err)
			}
			var doc document
			if err := json.Unmarshal(b, &doc); err != nil {
				t.Fatal(err)
			}
			ok, failed := 0, 0
			for _, r := range doc.Rounds {
				ok += r.OK
				failed += r.Failed
			}
			if failed == 0 {
				t.Errorf("no timed request failed")
			}
			if doc.LatencySamples != ok {
				t.Errorf("%d latency samples for %d verified responses (%d failed)", doc.LatencySamples, ok, failed)
			}
		})
	}
}

// TestPinnedInputs regenerates both benchmark datasets at full size and
// compares them with their pins, and checks that a dataset that drifted is
// refused. Element ids come from a process-wide counter, so a dataset has its
// pinned bytes only as the first one a process generates - which it is in a
// workload process; here each check re-runs this test in a process of its own.
func TestPinnedInputs(t *testing.T) {
	const childEnv = "BENCH_PIN_CHILD"
	if mode := os.Getenv(childEnv); mode != "" {
		seed, err := strconv.ParseInt(strings.TrimPrefix(mode, "drifted:"), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasPrefix(mode, "drifted:") {
			p := pins[seed]
			p.csvSHA256 = strings.Repeat("0", 64)
			pins[seed] = p
		}
		ds, err := makeDataset(t.TempDir(), seed, pinnedSF)
		switch {
		case strings.HasPrefix(mode, "drifted:"):
			if err == nil || !strings.Contains(err.Error(), "no longer the pinned input") {
				t.Errorf("drifted dataset accepted: %v", err)
			}
		case err != nil:
			t.Error(err)
		case !ds.Pinned:
			t.Errorf("seed %d: dataset not marked pinned", seed)
		}
		return
	}
	for _, mode := range []string{"2017", "2018", "drifted:2017"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestPinnedInputs$")
		cmd.Env = append(os.Environ(), childEnv+"="+mode)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Errorf("pin check %s: %v\n%s", mode, err, out)
		}
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a.csv"), []byte("1;2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	before, _, err := hashDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "a.csv"), []byte("1;3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if after, _, _ := hashDir(dir); after == before {
		t.Errorf("hash did not change with the file's bytes")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the harness's spec tables in
// step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, harness default %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), harness %q (%q)", i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	compare := func(kind string, got []jsonMetric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
		}
		for i, s := range want {
			g := got[i]
			if g.Name != s.Name || g.Unit != s.Unit || g.Better != s.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, harness %+v", kind, i, g, s)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != s.Bound) {
				t.Errorf("%s[%d] %s: bound in BENCHMARK.json does not match %v", kind, i, s.Name, s.Bound)
			}
		}
	}
	compare("end_to_end", bj.EndToEnd, endToEndSpecs, true)
	compare("per_layer", bj.PerLayer, perLayerSpecs, false)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles = %v, %v; want 1.5, 12", q1, q3)
	}
}

func TestWireDigest(t *testing.T) {
	body := []byte(`{"columns":["a"],"rows":[["x,\"count\":9"],[2]],"count":2,"fingerprint":"f","cluster":{"workers":2}}`)
	count, h1, err := wireDigest(body)
	if err != nil || count != 2 {
		t.Fatalf("count %d, err %v", count, err)
	}
	_, h2, _ := wireDigest(bytes.Replace(body, []byte(`[2]`), []byte(`[3]`), 1))
	if h1 == h2 {
		t.Errorf("rows hash did not change with the rows")
	}
	ref, err := decodedHash(body)
	if err != nil || ref.Count != 2 {
		t.Fatalf("decoded %+v, err %v", ref, err)
	}
	swapped, _ := decodedHash([]byte(`{"rows":[[2],["x,\"count\":9"]],"count":2}`))
	if swapped != ref {
		t.Errorf("decoded hash depends on row order")
	}
	if _, _, err := wireDigest([]byte(`{"error":"boom"}`)); err == nil {
		t.Errorf("body without rows accepted")
	}
}
