package obs

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"gradoop/internal/field"
)

func encodeSnapshot(s *Snapshot) []byte {
	c := field.Appender(nil)
	s.Layout(&c)
	return c.Bytes()
}

// decodeSnapshot decodes a snapshot that must fill b.
func decodeSnapshot(b []byte) (Snapshot, error) {
	var s Snapshot
	c := field.Reader(b)
	s.Layout(&c)
	return s, c.End()
}

// snapshotRegistry builds a registry covering every instrument kind the
// snapshot type-switch handles.
func snapshotRegistry() *Registry {
	r := NewRegistry()
	c := r.NewCounter("gradoop_worker_jobs_total", "jobs")
	c.Add(7)
	r.NewGaugeFunc("gradoop_worker_spans_retained", "ledger", func() float64 { return 3 })
	r.NewCounterFunc("gradoop_worker_spans_dropped_total", "dropped", func() float64 { return 11 })
	cv := r.NewCounterVec("gradoop_stage_retries_total", "retries", "kind")
	cv.With("join").Add(2)
	cv.With("map").Inc()
	cv2 := r.NewCounterVec2("gradoop_http_requests_total", "http", "endpoint", "code")
	cv2.With("/query", "200").Add(5)
	h := r.NewHistogram("gradoop_worker_job_seconds", "job time", ScaleNanos)
	h.Observe(int64(2 * time.Millisecond))
	h.Observe(int64(8 * time.Millisecond))
	hv := r.NewHistogramVec("gradoop_stage_duration_seconds", "stages", "kind", ScaleNanos)
	hv.With("join").Observe(int64(time.Millisecond))
	return r
}

// TestSnapshotMirrorsExposition checks the snapshot covers every family in
// name-sorted order with the exposed values.
func TestSnapshotMirrorsExposition(t *testing.T) {
	r := snapshotRegistry()
	s := r.Snapshot()
	if len(s.Families) != 7 {
		t.Fatalf("snapshot has %d families, want 7", len(s.Families))
	}
	for i := 1; i < len(s.Families); i++ {
		if s.Families[i-1].Name > s.Families[i].Name {
			t.Fatalf("families out of order: %s before %s", s.Families[i-1].Name, s.Families[i].Name)
		}
	}
	byName := map[string]MetricFamily{}
	for _, f := range s.Families {
		byName[f.Name] = f
	}
	if v := byName["gradoop_worker_jobs_total"].Samples[0].Value; v != 7 {
		t.Fatalf("counter snapshot %v, want 7", v)
	}
	if v := byName["gradoop_worker_spans_retained"].Samples[0].Value; v != 3 {
		t.Fatalf("gauge-func snapshot %v, want 3", v)
	}
	retries := byName["gradoop_stage_retries_total"]
	if len(retries.Samples) != 2 || retries.Samples[0].Labels[1] != "join" || retries.Samples[0].Value != 2 {
		t.Fatalf("counter-vec snapshot %+v", retries.Samples)
	}
	jobTime := byName["gradoop_worker_job_seconds"]
	if jobTime.Type != "summary" {
		t.Fatalf("histogram snapshot type %q, want summary", jobTime.Type)
	}
	var count, sum float64
	for _, smp := range jobTime.Samples {
		switch smp.Suffix {
		case "_count":
			count = smp.Value
		case "_sum":
			sum = smp.Value
		}
	}
	if count != 2 || sum < 0.009 || sum > 0.011 {
		t.Fatalf("histogram count=%v sum=%v, want 2 observations summing ~10ms", count, sum)
	}
}

// TestSnapshotWireRoundTrip pins the snapshot codec.
func TestSnapshotWireRoundTrip(t *testing.T) {
	s := snapshotRegistry().Snapshot()
	got, err := decodeSnapshot(encodeSnapshot(&s))
	if err != nil {
		t.Fatalf("decoding the snapshot: %v", err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, s)
	}
}

// TestSnapshotWireTruncated feeds every strict prefix: clean errors, no
// panics, no fabricated families.
func TestSnapshotWireTruncated(t *testing.T) {
	s := snapshotRegistry().Snapshot()
	buf := encodeSnapshot(&s)
	for cut := 0; cut < len(buf); cut++ {
		if _, err := decodeSnapshot(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d decoded without error", cut, len(buf))
		}
	}
}

// TestWriteFederated checks the federated section: names re-rooted under
// the prefix, the member label injected first, one HELP/TYPE header per
// family, structurally valid text format 0.0.4.
func TestWriteFederated(t *testing.T) {
	s1 := snapshotRegistry().Snapshot()
	s2 := snapshotRegistry().Snapshot()
	var sb strings.Builder
	WriteFederated(&sb, "gradoop_cluster_", "worker", []FederatedSnapshot{
		{Label: "w0", Snap: &s1},
		{Label: "w1", Snap: &s2},
		{Label: "dead", Snap: nil}, // never shipped a bundle; skipped
	})
	out := sb.String()

	for _, want := range []string{
		"# TYPE gradoop_cluster_worker_jobs_total counter",
		`gradoop_cluster_worker_jobs_total{worker="w0"} 7`,
		`gradoop_cluster_worker_jobs_total{worker="w1"} 7`,
		`gradoop_cluster_stage_retries_total{worker="w0",kind="join"} 2`,
		`gradoop_cluster_worker_job_seconds_count{worker="w1"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("federated exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, `worker="dead"`) {
		t.Error("nil snapshot produced samples")
	}
	// One header per family even with two members exposing it.
	if n := strings.Count(out, "# TYPE gradoop_cluster_worker_jobs_total"); n != 1 {
		t.Errorf("family header repeated %d times", n)
	}
	// Every line is a comment or a parsable sample.
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") || !strings.Contains(line, " ") {
			t.Errorf("bad federated line %q", line)
		}
	}
}
