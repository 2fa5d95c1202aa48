package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
)

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// runChild runs one workload in a fresh process of this program and returns
// its document. The child's standard output goes to out.
func runChild(cfg runConfig, w workload, traced bool, out io.Writer) (*document, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	path := documentPath(cfg.workdir, w.name, traced)
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	cmd := exec.Command(exe,
		"-workload", w.name, "-trace", trace, "-workdir", cfg.workdir,
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-data-seed", strconv.FormatInt(cfg.dataSeed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
	)
	cmd.Stdout = out
	cmd.Stderr = stderr
	runErr := cmd.Run()
	b, err := os.ReadFile(path)
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("workload %s: %w", w.name, runErr)
		}
		return nil, err
	}
	doc := &document{}
	if err := json.Unmarshal(b, doc); err != nil {
		return nil, fmt.Errorf("workload %s: %s: %w", w.name, path, err)
	}
	return doc, nil
}

// fullRun is the output of one run of all workloads.
type fullRun struct {
	Measured []*document `json:"measured"`
	Traced   []*document `json:"traced,omitempty"`
}

// failed reports which workloads had failed operations.
func (r *fullRun) failed() []string {
	var names []string
	for _, docs := range [][]*document{r.Measured, r.Traced} {
		for _, d := range docs {
			if !d.Correct {
				names = append(names, d.Workload)
			}
		}
	}
	return names
}

// runAll runs every workload in a child process of its own, one after the
// other, and the traced runs after all measured ones.
func runAll(cfg runConfig, traced bool, stdout io.Writer) error {
	var r fullRun
	for _, w := range workloads {
		doc, err := runChild(cfg, w, false, stdout)
		if err != nil {
			return err
		}
		r.Measured = append(r.Measured, doc)
	}
	if traced {
		for _, w := range workloads {
			doc, err := runChild(cfg, w, true, stdout)
			if err != nil {
				return err
			}
			r.Traced = append(r.Traced, doc)
		}
	}
	path := filepath.Join(cfg.workdir, "out", "run.json")
	if err := writeJSON(path, &r); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "full output with provenance and raw values: %s\n", path)
	if bad := r.failed(); len(bad) > 0 {
		return fmt.Errorf("failed operations in %v", bad)
	}
	return nil
}

// runAA runs two sets of n full runs of the same code, interleaved so that
// drift of the machine hits both, and compares the set medians of every
// end-to-end metric against its bound.
func runAA(cfg runConfig, n int, stdout io.Writer) error {
	if n < 5 {
		return fmt.Errorf("-aa needs at least 5 runs per set, got %d", n)
	}
	// values[set][workload][metric] collects one value per run.
	var values [2]map[string]map[string][]float64
	for s := range values {
		values[s] = map[string]map[string][]float64{}
	}
	for i := 0; i < n; i++ {
		for s := range values {
			runCfg := cfg
			runCfg.seed = cfg.seed + int64(i)
			for _, w := range workloads {
				var sink bytes.Buffer
				doc, err := runChild(runCfg, w, false, &sink)
				if err != nil {
					return err
				}
				if !doc.Correct {
					return fmt.Errorf("set %c run %d, %s: %d failed operations: %s", 'A'+s, i+1, w.name, doc.Failed, doc.FirstError)
				}
				if values[s][w.name] == nil {
					values[s][w.name] = map[string][]float64{}
				}
				for name, m := range doc.Metrics {
					values[s][w.name][name] = append(values[s][w.name][name], m.Value)
				}
				for _, name := range timingNames {
					values[s][w.name][name] = append(values[s][w.name][name], doc.Info[name])
				}
			}
			fmt.Fprintf(stderr, "bench: -aa: set %c run %d of %d done\n", 'A'+s, i+1, n)
		}
	}

	fmt.Fprintf(stdout, "A/A: two interleaved sets of %d runs of the same code (seeds %d..%d)\n", n, cfg.seed, cfg.seed+int64(n)-1)
	fmt.Fprintf(stdout, "| workload | metric | unit | median A | IQR A | median B | IQR B | B vs A | spread | bound | verdict |\n")
	fmt.Fprintf(stdout, "|---|---|---|---|---|---|---|---|---|---|---|\n")
	// The timings follow the end-to-end metrics in every workload's rows, with
	// no bound: they are shown so that the machine's noise is on record.
	specs := append([]metricSpec(nil), endToEndSpecs...)
	for _, s := range perLayerSpecs {
		if slices.Contains(timingNames, s.Name) {
			specs = append(specs, s)
		}
	}
	outside := 0
	for _, w := range workloads {
		for _, spec := range specs {
			a, b := values[0][w.name][spec.Name], values[1][w.name][spec.Name]
			ma, mb := median(a), median(b)
			a1, a3 := quartiles(a)
			b1, b3 := quartiles(b)
			// worse is how much B's median is worse than A's, as a share
			// of A's; spread is the wider set's interquartile range as a
			// share of its median.
			worse := (mb - ma) / ma
			if spec.Better == "higher" {
				worse = -worse
			}
			spread := max((a3-a1)/ma, (b3-b1)/mb)
			verdict, bound := "ok", fmt.Sprintf("%.0f%%", spec.Bound*100)
			switch {
			case spec.Bound == 0:
				verdict, bound = "shown", "-"
			case worse > spec.Bound || -worse > spec.Bound:
				verdict = "OUTSIDE"
				outside++
			// Runs that spread wider than the bound cannot tell a change of
			// that size from none.
			case spread > spec.Bound:
				verdict = "unresolved"
				outside++
			}
			fmt.Fprintf(stdout, "| %s | %s | %s | %.6g | %.6g..%.6g | %.6g | %.6g..%.6g | %+.2f%% | %.2f%% | %s | %s |\n",
				w.name, spec.Name, spec.Unit, ma, a1, a3, mb, b1, b3, (mb-ma)/ma*100, spread*100, bound, verdict)
		}
	}
	if outside > 0 {
		return fmt.Errorf("-aa: %d metric/workload pairs differ by more than their bound or spread wider than it", outside)
	}
	return nil
}
