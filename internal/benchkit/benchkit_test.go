package benchkit

import (
	"bytes"
	"strings"
	"testing"
)

// tinyRunner keeps unit tests fast; the real experiments use NewRunner.
func tinyRunner() *Runner {
	return &Runner{Seed: 2017, SFSmall: 0.02, SFLarge: 0.2, cache: map[string]*prepared{}}
}

func TestAllQueriesExecute(t *testing.T) {
	r := tinyRunner()
	for _, q := range AllQueries {
		m, err := r.Run(q, r.SFSmall, 2, Low)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if m.SimTime <= 0 {
			t.Fatalf("%s: no simulated time", q)
		}
		if !q.Operational() && m.Count == 0 {
			t.Fatalf("%s: analytical query found nothing", q)
		}
	}
}

func TestSelectivityOrdering(t *testing.T) {
	r := tinyRunner()
	// The selectivity classes are defined on person counts (firstName
	// frequency); the (:Person) pattern must order strictly.
	var personCounts []int64
	for _, sel := range []Selectivity{High, Medium, Low} {
		n, err := r.RunPattern(Table3Patterns[0].Query, r.SFLarge, 2, sel)
		if err != nil {
			t.Fatal(err)
		}
		personCounts = append(personCounts, n)
	}
	if !(personCounts[0] <= personCounts[1] && personCounts[1] <= personCounts[2]) {
		t.Fatalf("selectivity ordering violated: high=%d medium=%d low=%d",
			personCounts[0], personCounts[1], personCounts[2])
	}
	// Derived result sizes need not be strictly monotone (a rare name on a
	// hub author can out-message a mid-frequency name), but low selectivity
	// must dominate high by a wide margin.
	high, err := r.Run(Q1, r.SFLarge, 2, High)
	if err != nil {
		t.Fatal(err)
	}
	low, err := r.Run(Q1, r.SFLarge, 2, Low)
	if err != nil {
		t.Fatal(err)
	}
	if low.Count <= 2*high.Count {
		t.Fatalf("low (%d) should far exceed high (%d)", low.Count, high.Count)
	}
}

func TestCountsIndependentOfWorkers(t *testing.T) {
	r := tinyRunner()
	for _, q := range []QueryID{Q1, Q2, Q5} {
		var base int64 = -1
		for _, w := range []int{1, 4} {
			m, err := r.Run(q, r.SFSmall, w, Low)
			if err != nil {
				t.Fatal(err)
			}
			if base == -1 {
				base = m.Count
			} else if m.Count != base {
				t.Fatalf("%s: count differs across workers: %d vs %d", q, base, m.Count)
			}
		}
	}
}

func TestSpeedupWithWorkers(t *testing.T) {
	r := tinyRunner()
	m1, err := r.Run(Q2, r.SFLarge, 1, Low)
	if err != nil {
		t.Fatal(err)
	}
	m8, err := r.Run(Q2, r.SFLarge, 8, Low)
	if err != nil {
		t.Fatal(err)
	}
	if m8.SimTime >= m1.SimTime {
		t.Fatalf("no speedup: 1w=%s 8w=%s", m1.SimTime, m8.SimTime)
	}
}

func TestDataScaling(t *testing.T) {
	r := tinyRunner()
	small, err := r.Run(Q1, r.SFSmall, 4, Low)
	if err != nil {
		t.Fatal(err)
	}
	large, err := r.Run(Q1, r.SFLarge, 4, Low)
	if err != nil {
		t.Fatal(err)
	}
	if large.SimTime <= small.SimTime {
		t.Fatalf("larger data not slower: %s vs %s", small.SimTime, large.SimTime)
	}
}

func TestExperimentReportsRender(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full (downscaled) experiment drivers")
	}
	r := tinyRunner()
	experiments := []struct {
		name string
		run  func(*Runner, *bytes.Buffer) error
		frag string
	}{
		{"figure3", func(r *Runner, w *bytes.Buffer) error { return Figure3(r, w) }, "Figure 3"},
		{"figure4", func(r *Runner, w *bytes.Buffer) error { return Figure4(r, w) }, "Figure 4"},
		{"figure5", func(r *Runner, w *bytes.Buffer) error { return Figure5(r, w) }, "Figure 5"},
		{"table3", func(r *Runner, w *bytes.Buffer) error { return Table3(r, w) }, "Table 3"},
		{"table4", func(r *Runner, w *bytes.Buffer) error { return Table4(r, w) }, "Table 4"},
		{"cards", func(r *Runner, w *bytes.Buffer) error { return Cardinalities(r, w) }, "cardinalities"},
		{"extended", func(r *Runner, w *bytes.Buffer) error { return Extended(r, w) }, "Extended workload"},
	}
	for _, e := range experiments {
		var buf bytes.Buffer
		if err := e.run(r, &buf); err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		if !strings.Contains(buf.String(), e.frag) {
			t.Fatalf("%s: missing %q in output:\n%s", e.name, e.frag, buf.String())
		}
	}
}

func TestExtendedQueriesExecute(t *testing.T) {
	r := tinyRunner()
	p := r.Prepare(r.SFSmall, 2)
	for _, xq := range ExtendedQueries {
		res, err := runExtended(p, xq.Query)
		if err != nil {
			t.Fatalf("%s: %v", xq.Name, err)
		}
		if len(res) == 0 {
			t.Fatalf("%s: no rows", xq.Name)
		}
	}
}

func TestQueryTextsParseable(t *testing.T) {
	for _, q := range AllQueries {
		if q.Text() == "" {
			t.Fatalf("%s has no text", q)
		}
	}
	if Q1.String() != "Q1" || !Q1.Operational() || Q4.Operational() {
		t.Fatal("query metadata")
	}
}
