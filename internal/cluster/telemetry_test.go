package cluster

import (
	"encoding/binary"
	"reflect"
	"testing"
	"time"

	"gradoop/internal/obs"
	"gradoop/internal/trace"
)

// sealTelemetry is a telemetry frame payload as the worker sends it: the
// header, then the encoded bundle. It returns the header's length too.
func sealTelemetry(f telemetryFrame, b *telemetryBundle) (payload []byte, headLen int) {
	body := encodeTelemetryBundle(b)
	f.crc = checksum(body)
	head := headBytes(&f)
	return append(head, body...), len(head)
}

// testBundle builds a telemetry bundle exercising every encoded field.
func testBundle() telemetryBundle {
	r := obs.NewRegistry()
	c := r.NewCounter("gradoop_worker_jobs_total", "jobs")
	c.Add(3)
	h := r.NewHistogram("gradoop_worker_job_seconds", "job time", obs.ScaleNanos)
	h.Observe(int64(5 * time.Millisecond))
	return telemetryBundle{
		Node:      "w0",
		TraceID:   "job-0000002a",
		ElapsedNs: int64(12 * time.Millisecond),
		Spans: []trace.Span{
			{
				Stage: 0, Op: "scan", Kind: "map",
				Start: time.Microsecond, End: 90 * time.Microsecond,
				Parts:    []trace.PartStats{{RowsIn: 10, RowsOut: 10, CPUElements: 10}},
				Attempts: []trace.Attempt{{Part: 0, Start: time.Microsecond, End: 90 * time.Microsecond}},
			},
			{Stage: 1, Op: "join", Kind: "join", Shuffle: true,
				Start: 90 * time.Microsecond, End: 400 * time.Microsecond},
		},
		Metrics: r.Snapshot(),
	}
}

// TestTelemetryFrameRoundTrip pins the frame and bundle codecs end to end.
func TestTelemetryFrameRoundTrip(t *testing.T) {
	bundle := testBundle()
	enc, _ := sealTelemetry(telemetryFrame{JobID: 42, Attempt: 1, From: 2}, &bundle)
	var dec telemetryFrame
	body, err := openFrame(&dec, &dec.crc, enc)
	if err != nil {
		t.Fatalf("telemetry frame: %v", err)
	}
	if dec.JobID != 42 || dec.Attempt != 1 || dec.From != 2 {
		t.Fatalf("frame header %+v, want job=42 attempt=1 from=2", dec)
	}
	got, err := decodeTelemetryBundle(body)
	if err != nil {
		t.Fatalf("decodeTelemetryBundle: %v", err)
	}
	if !reflect.DeepEqual(*got, bundle) {
		t.Fatalf("bundle round trip diverged:\n got %+v\nwant %+v", *got, bundle)
	}
}

// TestTelemetryFrameTruncated decodes every strict prefix of a valid frame:
// each must error cleanly — a torn telemetry frame degrades the report,
// never panics the read loop.
func TestTelemetryFrameTruncated(t *testing.T) {
	bundle := testBundle()
	enc, _ := sealTelemetry(telemetryFrame{JobID: 7}, &bundle)
	for cut := 0; cut < len(enc); cut++ {
		var f telemetryFrame
		body, err := openFrame(&f, &f.crc, enc[:cut])
		if err != nil {
			continue // header too short, or CRC over a cut body failed
		}
		if _, err := decodeTelemetryBundle(body); err == nil {
			t.Fatalf("truncation at %d/%d decoded without error", cut, len(enc))
		}
	}
}

// TestTelemetryFrameCRC flips one bit of every body byte: the frame CRC
// must catch each corruption before the bundle decoder sees it.
func TestTelemetryFrameCRC(t *testing.T) {
	bundle := testBundle()
	enc, headLen := sealTelemetry(telemetryFrame{JobID: 7}, &bundle)
	for i := headLen; i < len(enc); i++ {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0x40
		var f telemetryFrame
		if _, err := openFrame(&f, &f.crc, bad); err == nil {
			t.Fatalf("bit flip at byte %d passed the CRC", i)
		}
	}
}

// TestTelemetryBundleTrailing rejects extra bytes after a valid bundle —
// trailing garbage means the encoder and decoder disagree on the layout.
func TestTelemetryBundleTrailing(t *testing.T) {
	bundle := testBundle()
	enc := append(encodeTelemetryBundle(&bundle), 0xEE)
	if _, err := decodeTelemetryBundle(enc); err == nil {
		t.Fatal("trailing byte decoded without error")
	}
}

// TestTelemetryBundleHostileCounts forges a huge span count: the decoder
// must reject it before allocating.
func TestTelemetryBundleHostileCounts(t *testing.T) {
	bundle := testBundle()
	enc := encodeTelemetryBundle(&bundle)
	// The span count sits right after the two strings and the elapsed u64.
	off := 4 + len(bundle.Node) + 4 + len(bundle.TraceID) + 8
	forged := append([]byte(nil), enc...)
	binary.BigEndian.PutUint32(forged[off:], 1<<31)
	if _, err := decodeTelemetryBundle(forged); err == nil {
		t.Fatal("hostile span count decoded without error")
	}
}

func spansN(n int) []trace.Span {
	out := make([]trace.Span, n)
	for i := range out {
		out[i] = trace.Span{Stage: int64(i), Kind: "map"}
	}
	return out
}

// TestTelemetryLedgerShip checks the leak fix's core move: shipping the
// winning attempt returns its spans and drops every superseded attempt's.
func TestTelemetryLedgerShip(t *testing.T) {
	l := newTelemetryLedger()
	l.retain(1, 0, spansN(5)) // attempt 0 failed
	l.retain(1, 1, spansN(3)) // attempt 1 won
	if got := l.retained(); got != 8 {
		t.Fatalf("retained %d, want 8", got)
	}
	won := l.ship(1, 1)
	if len(won) != 3 {
		t.Fatalf("shipped %d spans, want the winning attempt's 3", len(won))
	}
	if got := l.retained(); got != 0 {
		t.Fatalf("retained %d after ship, want 0", got)
	}
	if got := l.dropped.Load(); got != 5 {
		t.Fatalf("dropped %d, want the superseded attempt's 5", got)
	}
	if l.ship(1, 1) != nil {
		t.Fatal("second ship of the same job returned spans")
	}
}

// TestTelemetryLedgerPerJobCap overfills one job: oldest attempts evict
// first, and a single oversized attempt keeps only its newest spans.
func TestTelemetryLedgerPerJobCap(t *testing.T) {
	l := newTelemetryLedger()
	l.retain(1, 0, spansN(maxRetainedSpansPerJob-10))
	l.retain(1, 1, spansN(100)) // overflows: attempt 0 evicted whole
	if got := l.retained(); got != 100 {
		t.Fatalf("retained %d, want only the newest attempt's 100", got)
	}
	won := l.ship(1, 1)
	if len(won) != 100 {
		t.Fatalf("shipped %d, want 100", len(won))
	}

	// One attempt alone over the cap truncates, keeping the newest spans.
	l.retain(2, 0, spansN(maxRetainedSpansPerJob+7))
	if got := l.retained(); got != maxRetainedSpansPerJob {
		t.Fatalf("retained %d, want the cap %d", got, maxRetainedSpansPerJob)
	}
	won = l.ship(2, 0)
	if len(won) != maxRetainedSpansPerJob {
		t.Fatalf("shipped %d, want %d", len(won), maxRetainedSpansPerJob)
	}
	if won[0].Stage != 7 {
		t.Fatalf("truncation kept oldest spans (first stage %d, want 7)", won[0].Stage)
	}
}

// TestTelemetryLedgerJobCap holds spans for more jobs than the ledger
// retains: the oldest jobs evict so unresolved jobs cannot grow memory.
func TestTelemetryLedgerJobCap(t *testing.T) {
	l := newTelemetryLedger()
	for job := uint64(1); job <= maxRetainedJobs+3; job++ {
		l.retain(job, 0, spansN(4))
	}
	if got := l.retained(); got != maxRetainedJobs*4 {
		t.Fatalf("retained %d, want %d", got, maxRetainedJobs*4)
	}
	if l.ship(1, 0) != nil {
		t.Fatal("evicted job still shippable")
	}
	if got := l.ship(maxRetainedJobs+3, 0); len(got) != 4 {
		t.Fatalf("newest job shipped %d spans, want 4", len(got))
	}
}

// BenchmarkWorkerTelemetryDisabled pins the -no-telemetry hot path at zero
// allocations: for an attempt that failed, recordTelemetry must return before
// touching the ledger or the collector (make alloc-guard enforces the 0
// allocs/op).
func BenchmarkWorkerTelemetryDisabled(b *testing.B) {
	w := &Worker{telemetry: false}
	col := trace.NewCollector()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.recordTelemetry(uint64(i), 0, col, true)
	}
}
