// Command bench is the repository's one yardstick: a Cypher string in over
// HTTP and rows out, for the in-process engine and for the cluster, measured
// end to end and broken down by layer. It generates its inputs from a seed,
// runs each workload in a process of its own, verifies every response and
// prints every metric by name with unit, sample count and bound. README.md
// in this directory defines the metrics and says how to read the output.
//
//	bash bench/run.sh                         all four workloads, one child process each
//	bash bench/run.sh -trace 1                the same, then the traced run of each
//	bash bench/run.sh -workload cached        one workload in this process
//	bash bench/run.sh -aa 5                   two interleaved sets of 5 full runs, compared
//
// The last line a workload process prints is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// defaultSeconds is the length of the timed phase, and run_seconds in
// BENCHMARK.json.
const defaultSeconds = 20

var stderr io.Writer = os.Stderr

// environment is where and on what a run was made.
type environment struct {
	GitSHA      string `json:"git_sha"`
	GitModified bool   `json:"git_modified"`
	GoVersion   string `json:"go_version"`
	NumCPU      int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Kernel      string `json:"kernel"`
	LoadAvg     string `json:"loadavg_at_start"`
}

func readEnvironment() environment {
	e := environment{
		GitSHA:     "unknown",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	// The checkout a driver runs in is not a git repository; the build
	// stamps the revision only where there is one.
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				e.GitSHA = s.Value
			case "vcs.modified":
				e.GitModified = s.Value == "true"
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		e.LoadAvg = strings.TrimSpace(string(b))
	}
	return e
}

// document is everything one workload process reports: the metrics, the raw
// values behind them and where they came from.
type document struct {
	Workload string  `json:"workload"`
	Traced   bool    `json:"traced"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`

	Correct    bool   `json:"correct"`
	Attempted  int    `json:"ops_attempted"`
	Failed     int    `json:"ops_failed"`
	FirstError string `json:"first_error,omitempty"`

	Metrics metricSet `json:"metrics"`
	// Info holds values that are shown but are no metric of this run: the
	// timings of an untraced run, the ladder's cover per class of a traced
	// one.
	Info map[string]float64 `json:"info,omitempty"`

	Requests int `json:"timed_requests,omitempty"`
	// LatencySamples is the number of timed requests that passed the check;
	// only those have a latency.
	LatencySamples int         `json:"latency_samples,omitempty"`
	TimedS         float64     `json:"timed_s,omitempty"`
	Rounds         []roundStat `json:"rounds,omitempty"`
	SpanFile       string      `json:"span_file,omitempty"`

	Dataset    *dataset             `json:"dataset"`
	References map[string]reference `json:"references"`
	RoundSize  int                  `json:"requests_per_round"`
	Clients    int                  `json:"clients"`
	Env        environment          `json:"environment"`
}

func (d *document) finish(ops *opCounter) {
	d.Attempted, d.Failed = ops.attempted, ops.failed
	d.Correct = ops.failed == 0
	if ops.firstErr != nil {
		d.FirstError = ops.firstErr.Error()
	}
}

// runWorkload is the body of a workload process.
func runWorkload(cfg runConfig, traced bool) (*document, error) {
	if runtime.NumCPU() < 2 {
		return nil, fmt.Errorf("the benchmark needs 2 cores, this machine has %d", runtime.NumCPU())
	}
	runtime.GOMAXPROCS(2)
	env := readEnvironment()

	classes := cfg.workload.classes
	if traced {
		// The traced run reports a client median for every class.
		classes = allClasses
	}
	p, err := prepare(cfg, classes)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(p.ds.dir)

	doc := &document{
		Workload: cfg.workload.name, Traced: traced, Seed: cfg.seed, Seconds: cfg.seconds,
		Metrics: metricSet{}, Dataset: p.ds, References: map[string]reference{},
		RoundSize: len(cfg.workload.classes) * cfg.workload.perRound * cfg.workload.clients,
		Clients:   cfg.workload.clients, Env: env,
	}
	for i, r := range p.reqs {
		doc.References[r.class] = p.exps[i].ref
	}
	if traced {
		err = runTraced(cfg, p, doc)
	} else {
		err = runMeasured(cfg, p, doc)
	}
	return doc, err
}

// printDocument prints the metrics of one workload process, by name, with
// unit, sample count and bound.
func printDocument(w io.Writer, d *document) {
	kind, specs := "end-to-end", endToEndSpecs
	if d.Traced {
		kind, specs = "per-layer", perLayerSpecs
	}
	fmt.Fprintf(w, "== %s: %s metrics (seed %d, dataset seed %d SF %g: %d vertices, %d edges) ==\n",
		d.Workload, kind, d.Seed, d.Dataset.Seed, d.Dataset.SF, d.Dataset.Vertices, d.Dataset.Edges)
	for _, s := range specs {
		m, ok := d.Metrics[s.Name]
		if !ok {
			continue
		}
		bound := ""
		if s.Bound > 0 {
			bound = fmt.Sprintf("  bound %.0f%%", s.Bound*100)
		}
		fmt.Fprintf(w, "%-36s %14.4f %-6s n=%-6d %s better%s\n", s.Name, m.Value, m.Unit, m.N, s.Better, bound)
	}
	for _, name := range sortedKeys(d.Info) {
		fmt.Fprintf(w, "%-36s %14.4f        (shown, not a metric of this run)\n", name, d.Info[name])
	}
	if !d.Traced {
		fmt.Fprintf(w, "timed phase: %d requests in %d rounds, %.1f s\n", d.Requests, len(d.Rounds), d.TimedS)
	}
	fmt.Fprintf(w, "ops_failed %d of ops_attempted %d\n", d.Failed, d.Attempted)
	if d.FirstError != "" {
		fmt.Fprintf(w, "first failure: %s\n", d.FirstError)
	}
}

// contractLine is the last line of a workload process's output.
func contractLine(d *document) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{d.Correct, d.Attempted, d.Failed, map[string]value{}}
	for name, m := range d.Metrics {
		out.Metrics[name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // only unsupported values fail, and the metrics are finite floats
	}
	return string(b)
}

// documentPath is where a workload process leaves its full document for the
// process that started it.
func documentPath(workdir, workload string, traced bool) string {
	name := workload + ".json"
	if traced {
		name = workload + ".traced.json"
	}
	return filepath.Join(workdir, "out", name)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this workload in this process (analytic|operational|cached|cluster_2w); empty runs all four, each in a child process")
	seed := fs.Int64("seed", 2017, "seed of the request order")
	dataSeed := fs.Int64("data-seed", 2017, "seed of the dataset; 2017 and 2018 are pinned, 2018 is the unseen one")
	seconds := fs.Float64("seconds", defaultSeconds, "length of the timed phase of each workload")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run (after the measured one when all workloads run)")
	aa := fs.Int("aa", 0, "run two interleaved sets of this many full runs and compare them against the bounds")
	workdir := fs.String("workdir", ".bench_build", "directory for generated inputs and outputs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	cfg := runConfig{
		seed: *seed, dataSeed: *dataSeed, sf: pinnedSF, seconds: *seconds,
		cycles: 5, minRounds: 3, workdir: *workdir,
	}
	var err error
	switch {
	case *aa > 0:
		err = runAA(cfg, *aa, stdout)
	case *name == "":
		err = runAll(cfg, *trace == 1, stdout)
	default:
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		cfg.workload = w
		return workloadProcess(cfg, *trace == 1, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// workloadProcess runs one workload in this process, prints its metrics and
// the contract line, leaves the full document for whoever started it, and
// returns the exit code: 1 when the run broke or any operation failed.
func workloadProcess(cfg runConfig, traced bool, stdout io.Writer) int {
	doc, err := runWorkload(cfg, traced)
	if err == nil {
		printDocument(stdout, doc)
		err = writeJSON(documentPath(cfg.workdir, cfg.workload.name, traced), doc)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, contractLine(doc))
	if !doc.Correct {
		return 1
	}
	return 0
}
