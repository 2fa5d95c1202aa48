package cluster

import (
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
	"time"

	"gradoop/internal/obs"
	"gradoop/internal/trace"
)

// sealTelemetry is a telemetry frame payload as the worker sends it: the
// header, the encoded bundle and its checksum. It returns the header's length
// too.
func sealTelemetry(f attemptHead, b *telemetryBundle) (payload []byte, headLen int) {
	head := headBytes(&f)
	return frameBytes(frameTelemetry, head, encodeTelemetryBundle(b))[frameHeader:], len(head)
}

// testBundle builds a telemetry bundle exercising every encoded field.
func testBundle() telemetryBundle {
	r := obs.NewRegistry()
	c := r.NewCounter("gradoop_worker_jobs_total", "jobs")
	c.Add(3)
	h := r.NewHistogram("gradoop_worker_job_seconds", "job time", obs.ScaleNanos)
	h.Observe(int64(5 * time.Millisecond))
	snap := r.Snapshot()
	return telemetryBundle{
		Node:    "w0",
		TraceID: "job-0000002a",
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
		Metrics: &snap,
	}
}

// TestTelemetryFrameRoundTrip pins the frame and bundle codecs end to end.
func TestTelemetryFrameRoundTrip(t *testing.T) {
	bundle := testBundle()
	enc, _ := sealTelemetry(attemptHead{JobID: 42, Attempt: 1, From: 2}, &bundle)
	var dec attemptHead
	body, err := openFrame(&dec, enc)
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
	enc, _ := sealTelemetry(attemptHead{JobID: 7}, &bundle)
	for cut := 0; cut < len(enc); cut++ {
		var f attemptHead
		body, err := openFrame(&f, enc[:cut])
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
	enc, headLen := sealTelemetry(attemptHead{JobID: 7}, &bundle)
	for i := headLen; i < len(enc); i++ {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0x40
		var f attemptHead
		if _, err := openFrame(&f, bad); err == nil {
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
	// The span count sits right after the two strings.
	off := 4 + len(bundle.Node) + 4 + len(bundle.TraceID)
	forged := append([]byte(nil), enc...)
	binary.BigEndian.PutUint32(forged[off:], 1<<31)
	if _, err := decodeTelemetryBundle(forged); err == nil {
		t.Fatal("hostile span count decoded without error")
	}
}

// BenchmarkWorkerTelemetryDisabled pins what a failed attempt's done report
// costs at zero allocations: it is filled without touching the collector - a
// failed attempt's spans are never copied out, nothing ships them (make
// alloc-guard enforces the 0 allocs/op).
func BenchmarkWorkerTelemetryDisabled(b *testing.B) {
	w := &Worker{winst: newWorkerInstruments(nil)}
	spec := &jobSpec{JobID: 1}
	rt := &jobRuntime{}
	err := errors.New("stage failed")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var done jobDone
		w.failed(&done, spec, rt, err)
	}
}
