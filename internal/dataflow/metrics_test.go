package dataflow

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"gradoop/internal/field"
)

// TestSkewEdgeCases: Skew must degrade to the neutral 1.0 instead of
// dividing by zero on empty or zero-work snapshots.
func TestSkewEdgeCases(t *testing.T) {
	if s := (MetricsSnapshot{}).Skew(); s != 1 {
		t.Errorf("zero-value snapshot skew = %v, want 1", s)
	}
	if s := (MetricsSnapshot{Workers: 4}).Skew(); s != 1 {
		t.Errorf("zero-CPU snapshot skew = %v, want 1", s)
	}
	if s := (MetricsSnapshot{TotalCPU: 100, MaxWorkerCPU: 100}).Skew(); s != 1 {
		t.Errorf("zero-workers snapshot skew = %v, want 1", s)
	}
	perfect := MetricsSnapshot{Workers: 4, TotalCPU: 400, MaxWorkerCPU: 100}
	if s := perfect.Skew(); s != 1 {
		t.Errorf("balanced skew = %v, want 1", s)
	}
	skewed := MetricsSnapshot{Workers: 4, TotalCPU: 400, MaxWorkerCPU: 400}
	if s := skewed.Skew(); s != 4 {
		t.Errorf("one-hot skew = %v, want 4", s)
	}
}

// TestSnapshotString: the summary line must include the retry block exactly
// when retries happened.
func TestSnapshotString(t *testing.T) {
	clean := MetricsSnapshot{Workers: 2, Stages: 3}
	if s := clean.String(); strings.Contains(s, "retries=") {
		t.Errorf("clean snapshot mentions retries: %q", s)
	}
	retried := MetricsSnapshot{
		Workers: 2, Stages: 3,
		Retries: 2, RetriedStages: 1, RecoveryTime: 3 * time.Millisecond,
	}
	s := retried.String()
	for _, want := range []string{"retries=2", "retriedStages=1", "recovery=3ms"} {
		if !strings.Contains(s, want) {
			t.Errorf("retried snapshot %q missing %q", s, want)
		}
	}
	if !strings.Contains(s, "workers=2") || !strings.Contains(s, "skew=1.00") {
		t.Errorf("summary %q missing base fields", s)
	}
}

// TestMetricsConcurrentCounters: the lock-free ledger rows must accumulate
// correctly under concurrent hammering from all workers over two stages, the
// second still open when the snapshot is taken (run with -race this also
// proves the atomics and the fold under the lock are sound).
func TestMetricsConcurrentCounters(t *testing.T) {
	const workers, rounds = 8, 1000
	e := NewEnv(DefaultConfig(workers))
	for stage := range 2 {
		e.beginStage(kindFlatMap)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					e.charge(w, work{cpu: 1, net: 2, spill: 3})
				}
				if w%2 == stage {
					e.chargeRetry(w, time.Microsecond)
				}
			}(w)
		}
		wg.Wait()
	}
	s := e.Metrics()
	if s.TotalCPU != 2*workers*rounds || s.TotalNet != 4*workers*rounds || s.TotalSpill != 6*workers*rounds {
		t.Errorf("totals = %d/%d/%d, want %d/%d/%d",
			s.TotalCPU, s.TotalNet, s.TotalSpill, 2*workers*rounds, 4*workers*rounds, 6*workers*rounds)
	}
	if s.Retries != workers {
		t.Errorf("retries = %d, want %d", s.Retries, workers)
	}
	if s.RetriedStages != 2 {
		t.Errorf("retried stages = %d, want 2", s.RetriedStages)
	}
	if s.RecoveryTime != time.Duration(workers)*time.Microsecond {
		t.Errorf("recovery = %v, want %v", s.RecoveryTime, time.Duration(workers)*time.Microsecond)
	}
	e.Finish()
	if after := e.Metrics(); !reflect.DeepEqual(after, s) {
		t.Errorf("closing the open stage moved the snapshot:\nopen:   %+v\nclosed: %+v", s, after)
	}
}

// TestAddStageNumbers: stage numbers are 1-based and sequential, and
// shuffles are counted separately.
func TestAddStageNumbers(t *testing.T) {
	var m Metrics
	m.init(2)
	if n := m.addStage(false); n != 1 {
		t.Errorf("first stage = %d, want 1", n)
	}
	if n := m.addStage(true); n != 2 {
		t.Errorf("second stage = %d, want 2", n)
	}
	s := m.snapshot(DefaultConfig(2))
	if s.Stages != 2 || s.Shuffles != 1 {
		t.Errorf("stages/shuffles = %d/%d, want 2/1", s.Stages, s.Shuffles)
	}
}

// TestMetricsSnapshotLayoutIsWhole sets every field of a snapshot, by
// reflection, to a value of its own and round-trips it through Layout: a
// field the layout leaves out comes back zero, and the test names it.
func TestMetricsSnapshotLayoutIsWhole(t *testing.T) {
	var in MetricsSnapshot
	v := reflect.ValueOf(&in).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i + 1))
		case reflect.Slice:
			f.Set(reflect.ValueOf([]int64{int64(i + 1), -1}))
		default:
			t.Fatalf("field %s of kind %s: teach this test (and Layout) its encoding", v.Type().Field(i).Name, f.Kind())
		}
	}
	c := field.Appender(nil)
	in.Layout(&c)
	var out MetricsSnapshot
	r := field.Reader(c.Bytes())
	out.Layout(&r)
	if err := r.End(); err != nil {
		t.Fatal(err)
	}
	got := reflect.ValueOf(out)
	for i := 0; i < v.NumField(); i++ {
		if !reflect.DeepEqual(got.Field(i).Interface(), v.Field(i).Interface()) {
			t.Errorf("field %s does not cross: got %v, want %v", v.Type().Field(i).Name, got.Field(i), v.Field(i))
		}
	}
}
