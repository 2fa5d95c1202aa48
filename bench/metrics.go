package main

import "math"

// metricSpec names one metric of the benchmark. BENCHMARK.json lists the
// same names, units, directions and bounds; bench_test.go keeps the two in
// step.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	// Bound is the relative worsening that counts as a regression; only
	// end-to-end metrics have one.
	Bound float64
}

// The end-to-end metrics are the ones a regression is judged on. Throughput,
// latency and CPU time per request are not among them: on the shared 2-core
// box ten runs of the same code spread over 4 to 20 % of their median,
// whatever the estimator (median, quartile or best round), so no bound worth
// having holds. They are per-layer metrics (client.qps,
// client.latency_p50_ms, process.cpu_ms_per_req), every run shows them, and a
// speed claim is settled by paired runs (README.md).
var endToEndSpecs = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"allocs_per_req", "count", "lower", 0.01},
	{"alloc_kb_per_req", "KiB", "lower", 0.01},
	{"peak_rss_mb", "MiB", "lower", 0.10},
}

// timingNames are the per-layer metrics an untraced run also measures and
// shows, without gating them.
var timingNames = []string{"client.qps", "client.latency_p50_ms", "process.cpu_ms_per_req"}

var perLayerSpecs = func() []metricSpec {
	specs := []metricSpec{
		{Name: "client.qps", Unit: "1/s", Better: "higher"},
		{Name: "client.latency_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "client.net_ms", Unit: "ms", Better: "lower"},
		{Name: "client.latency_p95_ms", Unit: "ms", Better: "lower"},
		{Name: "client.latency_p99_ms", Unit: "ms", Better: "lower"},
	}
	for _, c := range allClasses {
		specs = append(specs, metricSpec{Name: "client.p50_ms." + c, Unit: "ms", Better: "lower"})
	}
	return append(specs,
		metricSpec{Name: "server.self_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "server.resp_kb_per_req", Unit: "KiB", Better: "lower"},
		metricSpec{Name: "server.encode_ns_per_row", Unit: "ns", Better: "lower"},
		metricSpec{Name: "session.self_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "session.plan_hit_ratio", Unit: "ratio", Better: "higher"},
		metricSpec{Name: "session.result_hit_ratio", Unit: "ratio", Better: "higher"},
		metricSpec{Name: "session.queue_wait_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "session.open_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "cypher.parse_us", Unit: "us", Better: "lower"},
		metricSpec{Name: "cypher.querygraph_us", Unit: "us", Better: "lower"},
		metricSpec{Name: "cypher.bind_us", Unit: "us", Better: "lower"},
		metricSpec{Name: "planner.plan_us", Unit: "us", Better: "lower"},
		metricSpec{Name: "planner.rebind_us", Unit: "us", Better: "lower"},
		metricSpec{Name: "core.execute_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "core.rows_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "dataflow.run_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "dataflow.stages_per_req", Unit: "count", Better: "lower"},
		metricSpec{Name: "dataflow.shuffles_per_req", Unit: "count", Better: "lower"},
		metricSpec{Name: "dataflow.net_kb_per_req", Unit: "KiB", Better: "lower"},
		metricSpec{Name: "dataflow.skew", Unit: "ratio", Better: "lower"},
		metricSpec{Name: "dataflow.shuffle_ns_per_elem", Unit: "ns", Better: "lower"},
		metricSpec{Name: "dataflow.shuffle_allocs_per_elem", Unit: "count", Better: "lower"},
		metricSpec{Name: "dataflow.join_ns_per_row", Unit: "ns", Better: "lower"},
		metricSpec{Name: "dataflow.join_allocs_per_row", Unit: "count", Better: "lower"},
		metricSpec{Name: "operators.leaf_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "operators.join_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "operators.expand_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "operators.other_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "operators.rows_examined_per_result", Unit: "ratio", Better: "lower"},
		metricSpec{Name: "embedding.merge_ns", Unit: "ns", Better: "lower"},
		metricSpec{Name: "embedding.merge_allocs", Unit: "count", Better: "lower"},
		metricSpec{Name: "embedding.prop_ns", Unit: "ns", Better: "lower"},
		metricSpec{Name: "embedding.encode_ns_per_row", Unit: "ns", Better: "lower"},
		metricSpec{Name: "embedding.decode_ns_per_row", Unit: "ns", Better: "lower"},
		metricSpec{Name: "cluster.stage_wall_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "cluster.overhead_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "cluster.wire_kb_per_req", Unit: "KiB", Better: "lower"},
		metricSpec{Name: "cluster.wire_over_model", Unit: "ratio", Better: "lower"},
		metricSpec{Name: "cluster.skew_max", Unit: "ratio", Better: "lower"},
		metricSpec{Name: "cluster.attempts_per_req", Unit: "count", Better: "lower"},
		metricSpec{Name: "cluster.connect_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "cluster.worker_load_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "wire.params_roundtrip_ns", Unit: "ns", Better: "lower"},
		metricSpec{Name: "storage.csv_read_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "stats.collect_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "process.cpu_ms_per_req", Unit: "ms", Better: "lower"},
		metricSpec{Name: "process.gc_cycles_per_req", Unit: "count", Better: "lower"},
		metricSpec{Name: "process.gc_cpu_fraction", Unit: "ratio", Better: "lower"},
		metricSpec{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	)
}()

// metric is one measured value. N is the number of samples behind it; Raw
// holds the values a median or minimum was taken over, when there are few
// enough to keep.
type metric struct {
	Value float64   `json:"value"`
	Unit  string    `json:"unit"`
	N     int       `json:"n"`
	Raw   []float64 `json:"raw,omitempty"`
}

// metricSet collects the metrics of one run by name.
type metricSet map[string]metric

var unitOf = func() map[string]string {
	units := map[string]string{}
	for _, specs := range [][]metricSpec{endToEndSpecs, perLayerSpecs} {
		for _, s := range specs {
			units[s.Name] = s.Unit
		}
	}
	return units
}()

// set records a metric under a name one of the two spec tables declares. A
// value that is not finite - a ratio over no successful request - is
// recorded as 0: JSON has no NaN, and such a run already reports failed
// operations.
func (m metricSet) set(name string, value float64, n int, raw ...float64) {
	unit, ok := unitOf[name]
	if !ok {
		panic("bench: metric " + name + " is in no spec table")
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	m[name] = metric{Value: value, Unit: unit, N: n, Raw: raw}
}
