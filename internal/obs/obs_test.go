package obs

import (
	"bytes"
	"context"
	"log/slog"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestCountersAndVecs: basic recording and exposition of every instrument
// kind.
func TestCountersAndVecs(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("jobs_total", "jobs executed")
	c.Add(3)
	v := r.NewCounterVec("errors_total", "errors by kind", "kind")
	v.With("timeout").Inc()
	v.With("timeout").Inc()
	v.With("invalid").Inc()
	v2 := r.NewCounterVec2("responses_total", "responses", "endpoint", "code")
	v2.With("/query", "200").Add(5)
	r.NewGaugeFunc("queue_depth", "queued requests", func() float64 { return 7 })
	h := r.NewHistogram("latency_seconds", "request latency", ScaleNanos)
	h.Observe(int64(2 * time.Second))

	out := r.Exposition()
	for _, want := range []string{
		"# TYPE jobs_total counter",
		"jobs_total 3",
		`errors_total{kind="invalid"} 1`,
		`errors_total{kind="timeout"} 2`,
		`responses_total{endpoint="/query",code="200"} 5`,
		"# TYPE queue_depth gauge",
		"queue_depth 7",
		"# TYPE latency_seconds summary",
		`latency_seconds{quantile="0.99"}`,
		"latency_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// The scaled 2s observation exposes as ~2 seconds, not 2e9.
	if !strings.Contains(out, "latency_seconds_sum 2\n") {
		t.Errorf("scale not applied:\n%s", out)
	}
}

// expositionLine matches one valid Prometheus text-format sample line.
var expositionLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[+-]?Inf|-?[0-9.eE+-]+)$`)

// TestExpositionParses: every line of a populated registry's exposition is
// either a well-formed comment or a well-formed sample, and every sample's
// family appeared in a preceding # TYPE line.
func TestExpositionParses(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("a_total", "with \"quotes\" and \\backslash")
	v := r.NewCounterVec("b_total", "b", "label")
	v.With(`weird "value" with \slashes` + "\nand newline").Inc()
	h := r.NewHistogramVec("c_seconds", "c", "kind", ScaleNanos)
	h.With("Join").Observe(12345)
	h.With("Map").Observe(678)
	r.NewGaugeFunc("d", "", func() float64 { return 1.5 })

	typed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSuffix(r.Exposition(), "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			typed[fields[2]] = true
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Fatalf("malformed sample line %q", line)
		}
		name := line[:strings.IndexAny(line, "{ ")]
		family := strings.TrimSuffix(strings.TrimSuffix(name, "_sum"), "_count")
		family = strings.TrimSuffix(family, "_count")
		if !typed[name] && !typed[family] {
			t.Fatalf("sample %q has no preceding TYPE", line)
		}
	}
}

// TestNilRegistryZeroCost: a nil registry hands out nil instruments whose
// every operation is allocation-free (the disabled-telemetry guarantee the
// engine's hot path relies on).
func TestNilRegistryZeroCost(t *testing.T) {
	var r *Registry
	c := r.NewCounter("x", "")
	v := r.NewCounterVec("y", "", "l")
	v2 := r.NewCounterVec2("y2", "", "a", "b")
	h := r.NewHistogram("z", "", 1)
	hv := r.NewHistogramVec("w", "", "l", 1)
	if c != nil || v != nil || v2 != nil || h != nil || hv != nil {
		t.Fatal("nil registry handed out a live instrument")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(5)
		v.With("k").Inc()
		v2.With("a", "b").Inc()
		h.Observe(123)
		h.ObserveSince(time.Time{})
		hv.With("k").Observe(42)
	})
	if allocs != 0 {
		t.Fatalf("disabled instruments allocated %v per op", allocs)
	}
	if r.Exposition() != "" {
		t.Fatal("nil registry exposed samples")
	}
}

// TestEnabledPathNoAlloc: recording into live instruments allocates nothing
// once the vec children exist — the registry is usable on per-stage and
// per-request hot paths.
func TestEnabledPathNoAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("x_total", "")
	h := r.NewHistogram("h", "", 1)
	v := r.NewCounterVec("v_total", "", "kind")
	hv := r.NewHistogramVec("hv", "", "kind", 1)
	v.With("warm")
	hv.With("warm")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		h.Observe(987654321)
		v.With("warm").Inc()
		hv.With("warm").Observe(55)
	})
	if allocs != 0 {
		t.Fatalf("enabled hot path allocated %v per op", allocs)
	}
}

// TestRegistryPanicsOnBadRegistration: duplicate and malformed names are
// programming errors caught at construction.
func TestRegistryPanicsOnBadRegistration(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.NewCounter("dup", "")
	expectPanic("duplicate", func() { r.NewCounter("dup", "") })
	expectPanic("bad name", func() { r.NewCounter("bad-name", "") })
	expectPanic("empty name", func() { r.NewCounter("", "") })
}

// TestRegistrySealedAfterRead: a scrape or a snapshot seals the registry, so
// a constructor that runs per request or per partition panics, with the
// instrument's name, on its first call after a read even when its name is
// new each time.
func TestRegistrySealedAfterRead(t *testing.T) {
	for _, read := range []struct {
		name string
		read func(*Registry)
	}{
		{"WritePrometheus", func(r *Registry) { r.Exposition() }},
		{"Snapshot", func(r *Registry) { r.Snapshot() }},
	} {
		t.Run(read.name, func(t *testing.T) {
			r := NewRegistry()
			r.NewCounter("before_read", "")
			read.read(r)
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, `"per_request_1"`) || !strings.Contains(msg, "after the registry was read") {
					t.Errorf("register after %s: panic %q, want one naming per_request_1", read.name, msg)
				}
			}()
			r.NewCounter("per_request_1", "")
		})
	}
}

// TestTraceIDHandler: records logged with a stamped context carry trace_id;
// records without a stamp don't.
func TestTraceIDHandler(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(NewLogHandler(slog.NewJSONHandler(&buf, nil)))

	ctx := WithTraceID(context.Background(), "00c0ffee")
	logger.LogAttrs(ctx, slog.LevelInfo, "with trace")
	logger.LogAttrs(context.Background(), slog.LevelInfo, "without trace")

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines", len(lines))
	}
	if !strings.Contains(lines[0], `"trace_id":"00c0ffee"`) {
		t.Errorf("first record lacks trace_id: %s", lines[0])
	}
	if strings.Contains(lines[1], "trace_id") {
		t.Errorf("unstamped record gained a trace_id: %s", lines[1])
	}
	if TraceIDFrom(nil) != "" || TraceIDFrom(context.Background()) != "" {
		t.Error("TraceIDFrom invented an ID")
	}
}
