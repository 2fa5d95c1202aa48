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

// The frames that carry telemetry are a traced attempt's done frame, its spans
// among the report's fields, and a pong that carries the worker's registry
// snapshot.

// testSnapshot is a registry snapshot with a counter and a histogram.
func testSnapshot() *obs.Snapshot {
	r := obs.NewRegistry()
	c := r.NewCounter("gradoop_worker_jobs_total", "jobs")
	c.Add(3)
	h := r.NewHistogram("gradoop_worker_job_seconds", "job time", obs.ScaleNanos)
	h.Observe(int64(5 * time.Millisecond))
	snap := r.Snapshot()
	return &snap
}

// testTracedDone is a traced attempt's done report, its spans exercising
// every encoded field.
func testTracedDone() jobDone {
	done := goldenDone()
	done.Spans = []trace.Span{
		{
			Stage: 0, Op: "scan", Kind: "map",
			Start: time.Microsecond, End: 90 * time.Microsecond,
			Parts:    []trace.PartStats{{RowsIn: 10, RowsOut: 10, CPUElements: 10}},
			Attempts: []trace.Attempt{{Part: 0, Start: time.Microsecond, End: 90 * time.Microsecond}},
		},
		{Stage: 1, Op: "join", Kind: "join", Shuffle: true,
			Start: 90 * time.Microsecond, End: 400 * time.Microsecond},
	}
	return done
}

// telemetryFrames are the payloads, as a reader takes them off the socket, of
// a traced done frame with its result and of a pong with a snapshot.
func telemetryFrames() map[string][]byte {
	done := testTracedDone()
	return map[string][]byte{
		"done": framed(&outFrame{typ: frameJobDone, body: doneBody(&done, goldenResult())})[frameHeader:],
		"pong": frameBytes(framePong, nil, encodeSnapshot(testSnapshot()))[frameHeader:],
	}
}

// openTelemetry decodes a telemetry frame's payload: a done report, or a
// snapshot.
func openTelemetry(name string, payload []byte) (any, error) {
	body, err := sealedBody(payload)
	if err != nil {
		return nil, err
	}
	if name == "done" {
		return decodeJobDone(body)
	}
	return decodeSnapshot(body)
}

// TestTelemetryFrameRoundTrip pins the frames and their codecs end to end.
func TestTelemetryFrameRoundTrip(t *testing.T) {
	frames := telemetryFrames()
	got, err := openTelemetry("done", frames["done"])
	if err != nil {
		t.Fatalf("done frame: %v", err)
	}
	want := testTracedDone()
	want.Result = got.(*jobDone).Result
	if !reflect.DeepEqual(*got.(*jobDone), want) {
		t.Fatalf("done report round trip diverged:\n got %+v\nwant %+v", got, want)
	}
	if got, err := openTelemetry("pong", frames["pong"]); err != nil || !reflect.DeepEqual(got, testSnapshot()) {
		t.Fatalf("pong round trip diverged (%v):\n got %+v\nwant %+v", err, got, testSnapshot())
	}
}

// TestTelemetryFrameTruncated decodes every strict prefix of each frame: each
// must error cleanly - a torn frame costs a done report its member and a pong
// its snapshot, and never panics the read loop.
func TestTelemetryFrameTruncated(t *testing.T) {
	for name, enc := range telemetryFrames() {
		for cut := 0; cut < len(enc); cut++ {
			if _, err := openTelemetry(name, enc[:cut]); err == nil {
				t.Fatalf("%s: truncation at %d/%d decoded without error", name, cut, len(enc))
			}
		}
	}
}

// TestTelemetryFrameCRC flips one bit of every byte of each frame: the CRC
// must catch each corruption before a decoder sees it.
func TestTelemetryFrameCRC(t *testing.T) {
	for name, enc := range telemetryFrames() {
		for i := range enc {
			bad := append([]byte(nil), enc...)
			bad[i] ^= 0x40
			if _, err := sealedBody(bad); err == nil {
				t.Fatalf("%s: bit flip at byte %d passed the CRC", name, i)
			}
		}
	}
}

// TestSnapshotTrailing rejects extra bytes after a valid snapshot - trailing
// garbage means the encoder and decoder disagree on the layout - and a failed
// attempt's done report with bytes behind its fields, where only a
// successful attempt's result goes.
func TestSnapshotTrailing(t *testing.T) {
	if _, err := decodeSnapshot(append(encodeSnapshot(testSnapshot()), 0xEE)); err == nil {
		t.Fatal("trailing byte decoded without error")
	}
	failed := jobDone{Error: "boom"}
	if _, err := decodeJobDone(append(encodeJobDone(&failed), 0xEE)); err == nil {
		t.Fatal("a failed attempt's report with a result decoded without error")
	}
}

// TestDoneReportHostileCounts forges a huge span count: the decoder must
// reject it before allocating.
func TestDoneReportHostileCounts(t *testing.T) {
	done := testTracedDone()
	enc := encodeJobDone(&done)
	spans := done.Spans
	done.Spans = nil
	off := len(encodeJobDone(&done)) - 4 // the span count is the last field
	if binary.BigEndian.Uint32(enc[off:]) != uint32(len(spans)) {
		t.Fatalf("no span count of %d at byte %d", len(spans), off)
	}
	binary.BigEndian.PutUint32(enc[off:], 1<<31)
	if _, err := decodeJobDone(enc); err == nil {
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
