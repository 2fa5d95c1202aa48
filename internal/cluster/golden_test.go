package cluster

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"
	"time"

	"gradoop/internal/dataflow"
	"gradoop/internal/obs"
	"gradoop/internal/session"
	"gradoop/internal/trace"
)

// The hex below was captured at the commit before the message codecs were
// rewritten on internal/field (hand-rolled append/read pairs then): the
// rewrite, and any later change to a layout function, must reproduce it byte
// for byte or bump protoVersion. Version 7 re-pinned the bundle: it lost the
// attempt's elapsed time, which moved to the done report, and carries its
// registry snapshot behind a bit, set here.

// goldenBundle holds a span with parts and attempts (one failed), an empty
// span, and a snapshot with a labelled family, an unlabelled one and one
// without samples.
func goldenBundle() telemetryBundle {
	return telemetryBundle{
		Node:    "w1",
		TraceID: "job-0000002a",
		Spans: []trace.Span{
			{
				Stage: 3, Op: "join knows", Kind: "join", Shuffle: true, Iteration: 2,
				Start: 250 * time.Microsecond, End: 900 * time.Microsecond,
				Parts: []trace.PartStats{
					{RowsIn: 100, RowsOut: 90, CPUElements: 190, NetBytes: 8192, MemBytes: 4096},
					{RowsIn: 80, RowsOut: 80, CPUElements: 160, SpillBytes: 512, Retries: 1,
						Recovery: 3 * time.Microsecond},
				},
				Attempts: []trace.Attempt{
					{Part: 0, N: 0, Start: 250 * time.Microsecond, End: 600 * time.Microsecond},
					{Part: 1, N: 0, Start: 251 * time.Microsecond, End: 300 * time.Microsecond, Failed: true},
					{Part: 1, N: 1, Start: 301 * time.Microsecond, End: 900 * time.Microsecond},
				},
			},
			{},
		},
		Metrics: &obs.Snapshot{Families: []obs.MetricFamily{
			{Name: "gradoop_stage_retries_total", Help: "retries", Type: "counter",
				Samples: []obs.MetricSample{
					{Labels: []string{"kind", "join"}, Value: 2},
					{Suffix: "_sum", Labels: []string{"kind", "map", "quantile", "0.5"}, Value: -0.25},
				}},
			{Name: "gradoop_worker_jobs_total", Help: "jobs", Type: "counter",
				Samples: []obs.MetricSample{{Value: 7}}},
			{Name: "gradoop_worker_idle", Type: "gauge"},
		}},
	}
}

const goldenBundleHex = "" +
	"0000000277310000000c6a6f622d30303030303032610000000200000000000000030000000a6a6f696e206b6e6f7773" +
	"000000046a6f696e0100000002000000000003d09000000000000dbba000000002000000000000006400000000000000" +
	"5a00000000000000be000000000000200000000000000000000000000000001000000000000000000000000000000000" +
	"000000000000000050000000000000005000000000000000a00000000000000000000000000000020000000000000000" +
	"000000000000000bb80000000000000001000000030000000000000000000000000003d09000000000000927c0000000" +
	"000100000000000000000003d47800000000000493e001000000010000000100000000000497c800000000000dbba000" +
	"000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000010000" +
	"00030000001b677261646f6f705f73746167655f726574726965735f746f74616c000000077265747269657300000007" +
	"636f756e746572000000020000000000000002000000046b696e64000000046a6f696e4000000000000000000000045f" +
	"73756d00000004000000046b696e64000000036d6170000000087175616e74696c6500000003302e35bfd00000000000" +
	"0000000019677261646f6f705f776f726b65725f6a6f62735f746f74616c000000046a6f627300000007636f756e7465" +
	"72000000010000000000000000401c00000000000000000013677261646f6f705f776f726b65725f69646c6500000000" +
	"00000005676175676500000000"

// TestTelemetryBundleGolden pins the bundle's bytes - and with them the span
// and snapshot layouts of internal/trace and internal/obs - in both
// directions.
func TestTelemetryBundleGolden(t *testing.T) {
	want, err := hex.DecodeString(goldenBundleHex)
	if err != nil {
		t.Fatal(err)
	}
	bundle := goldenBundle()
	if got := encodeTelemetryBundle(&bundle); !bytes.Equal(got, want) {
		t.Fatalf("bundle bytes moved\n got %x\nwant %x", got, want)
	}
	got, err := decodeTelemetryBundle(want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*got, bundle) {
		t.Fatalf("golden bytes decode to\n%+v\nwant\n%+v", *got, bundle)
	}
}

// goldenDone is a done report with every field set: a lost peer, two stages
// (one a shuffle) and a metrics snapshot of two workers.
func goldenDone() jobDone {
	return jobDone{
		Error:     "cluster: peer lost",
		LostPeers: []int{0, 2},
		ElapsedNs: int64(12 * time.Millisecond),
		Stages: []session.ClusterStage{
			{Stage: 1, Op: "scan", Kind: "FlatMap", Predicted: 900, Actual: 1200, ModelBytes: 0, WireBytes: 0},
			{Stage: 2, Op: "join knows", Kind: "Shuffle", Shuffle: true, Predicted: 5000, Actual: 4000, ModelBytes: 8192, WireBytes: 9000},
		},
		Metrics: dataflow.MetricsSnapshot{
			Workers: 2, CPUElements: []int64{10, 20}, NetBytes: []int64{0, 8192}, SpillBytes: []int64{0, 0}, MemBytes: []int64{64, 0},
			Stages: 2, Shuffles: 1, TotalCPU: 30, TotalNet: 8192, TotalMem: 64, SimTime: 3 * time.Millisecond, MaxWorkerCPU: 20,
			Retries: 1, RetriedStages: 1, RecoveryTime: time.Microsecond,
		},
	}
}

const goldenDoneHex = "" +
	"00000012636c75737465723a2070656572206c6f73740000000200000000000000020000000000b71b00000000020000" +
	"000000000001000000047363616e00000007466c61744d617000000000000000038400000000000004b0000000000000" +
	"0000000000000000000000000000000000020000000a6a6f696e206b6e6f77730000000753687566666c650100000000" +
	"000013880000000000000fa0000000000000200000000000000023280000000200000002000000000000000a00000000" +
	"000000140000000200000000000000000000000000002000000000020000000000000000000000000000000000000002" +
	"0000000000000040000000000000000000000000000000020000000000000001000000000000001e0000000000002000" +
	"000000000000000000000000000000400000000000000014000000000000000000000000000000010000000000000001" +
	"000000000000000000000000002dc6c000000000000003e80000000000000000"

// TestDoneReportGolden pins the done report's bytes - and with them the
// metrics snapshot's layout of internal/dataflow - in both directions.
func TestDoneReportGolden(t *testing.T) {
	want, err := hex.DecodeString(goldenDoneHex)
	if err != nil {
		t.Fatal(err)
	}
	done := goldenDone()
	if got := encodeJobDone(&done); !bytes.Equal(got, want) {
		t.Fatalf("done report bytes moved\n got %x\nwant %x", got, want)
	}
	got, err := decodeJobDone(want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*got, done) {
		t.Fatalf("golden bytes decode to\n%+v\nwant\n%+v", *got, done)
	}
}

// TestFrameHeaderGolden pins the four checksummed frames as a sender puts
// them on the socket - length, type, header, body written in pieces, and the
// CRC32 of the body behind it - in both directions. Protocol version 4 moved
// the checksum from the end of the header to behind the body, and the frames
// kept their length: the same header and trailer bytes as version 3's headers,
// 7d0afa94 still the CRC of the body. Version 5 headed a result frame as a
// telemetry frame is, and the bytes stayed: the field that named the one
// partition a frame carried is where the sender's roster index is now.
// Version 7 sealed the done report behind the same header.
func TestFrameHeaderGolden(t *testing.T) {
	body := [][]byte{[]byte("shuffle "), nil, []byte("bucket bytes")}
	flat := bytes.Join(body, nil)
	for _, tc := range []struct {
		name       string
		typ        byte
		head, into frameHead
		want       string
	}{
		{"data", frameData, &dataFrame{JobID: 7, Attempt: 1, Seq: 3, Kind: kindAllGather, From: 2, Stage: 9}, &dataFrame{},
			"0000003a0a" + "0000000000000007000000010000000000000003010000000200000000000000" + "09" + hex.EncodeToString(flat) + "7d0afa94"},
		{"result", frameResult, &attemptHead{JobID: 7, Attempt: 1, From: 3}, &attemptHead{},
			"0000002906" + "00000000000000070000000100000003" + hex.EncodeToString(flat) + "7d0afa94"},
		{"telemetry", frameTelemetry, &attemptHead{JobID: 42, Attempt: 1, From: 2}, &attemptHead{},
			"000000290b" + "000000000000002a0000000100000002" + hex.EncodeToString(flat) + "7d0afa94"},
		{"done", frameJobDone, &attemptHead{JobID: 42, Attempt: 1, From: 2}, &attemptHead{},
			"0000002905" + "000000000000002a0000000100000002" + hex.EncodeToString(flat) + "7d0afa94"},
	} {
		want, err := hex.DecodeString(tc.want)
		if err != nil {
			t.Fatal(err)
		}
		if got := frameBytes(tc.typ, headBytes(tc.head), body...); !bytes.Equal(got, want) {
			t.Errorf("%s frame bytes moved\n got %x\nwant %x", tc.name, got, want)
		}
		typ, payload, err := readFrame(bufio.NewReader(bytes.NewReader(want)), nil)
		if err != nil || typ != tc.typ {
			t.Fatalf("%s frame reads as type %d, %v", tc.name, typ, err)
		}
		got, err := openFrame(tc.into, payload)
		if err != nil || !reflect.DeepEqual(tc.into, tc.head) || !bytes.Equal(got, flat) {
			t.Errorf("%s frame decodes to %+v, body %q (%v), want %+v, %q", tc.name, tc.into, got, err, tc.head, flat)
		}
	}
}
