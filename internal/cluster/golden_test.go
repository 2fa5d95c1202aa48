package cluster

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"
	"time"

	"gradoop/internal/field"
	"gradoop/internal/obs"
	"gradoop/internal/trace"
)

// The hex below was captured at the commit before the message codecs were
// rewritten on internal/field (hand-rolled append/read pairs then): the
// rewrite, and any later change to a layout function, must reproduce it byte
// for byte or bump protoVersion.

// goldenBundle holds a span with parts and attempts (one failed), an empty
// span, and a snapshot with a labelled family, an unlabelled one and one
// without samples.
func goldenBundle() telemetryBundle {
	return telemetryBundle{
		Node:      "w1",
		TraceID:   "job-0000002a",
		ElapsedNs: int64(12 * time.Millisecond),
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
		Metrics: obs.Snapshot{Families: []obs.MetricFamily{
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
	"0000000277310000000c6a6f622d30303030303032610000000000b71b000000000200000000000000030000000a6a6f" +
	"696e206b6e6f7773000000046a6f696e0100000002000000000003d09000000000000dbba00000000200000000000000" +
	"64000000000000005a00000000000000be00000000000020000000000000000000000000000000100000000000000000" +
	"0000000000000000000000000000000050000000000000005000000000000000a0000000000000000000000000000002" +
	"0000000000000000000000000000000bb80000000000000001000000030000000000000000000000000003d090000000" +
	"00000927c0000000000100000000000000000003d47800000000000493e001000000010000000100000000000497c800" +
	"000000000dbba00000000000000000000000000000000000000000000000000000000000000000000000000000000000" +
	"0000000000000000030000001b677261646f6f705f73746167655f726574726965735f746f74616c0000000772657472" +
	"69657300000007636f756e746572000000020000000000000002000000046b696e64000000046a6f696e400000000000" +
	"0000000000045f73756d00000004000000046b696e64000000036d6170000000087175616e74696c6500000003302e35" +
	"bfd000000000000000000019677261646f6f705f776f726b65725f6a6f62735f746f74616c000000046a6f6273000000" +
	"07636f756e746572000000010000000000000000401c00000000000000000013677261646f6f705f776f726b65725f69" +
	"646c650000000000000005676175676500000000"

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

// TestFrameHeaderGolden pins the three checksummed frame headers, the CRC
// taken over a body written in segments.
func TestFrameHeaderGolden(t *testing.T) {
	body := [][]byte{[]byte("shuffle "), nil, []byte("bucket bytes")}
	flat := bytes.Join(body, nil)
	for _, tc := range []struct {
		name       string
		head, into frameHead
		want       string
	}{
		{"data", &dataFrame{JobID: 7, Attempt: 1, Seq: 3, Kind: kindAllGather, From: 2, Stage: 9, crc: checksum(body...)},
			&dataFrame{}, "0000000000000007000000010000000000000003010000000200000000000000097d0afa94"},
		{"result", &resultFrame{JobID: 7, Attempt: 1, Partition: 3, crc: checksum(flat)},
			&resultFrame{}, "000000000000000700000001000000037d0afa94"},
		{"telemetry", &telemetryFrame{JobID: 42, Attempt: 1, From: 2, crc: checksum(flat)},
			&telemetryFrame{}, "000000000000002a00000001000000027d0afa94"},
	} {
		want, err := hex.DecodeString(tc.want)
		if err != nil {
			t.Fatal(err)
		}
		if got := headBytes(tc.head); !bytes.Equal(got, want) {
			t.Errorf("%s header bytes moved\n got %x\nwant %x", tc.name, got, want)
		}
		c := field.Reader(want)
		tc.into.layout(&c)
		if err := c.End(); err != nil || !reflect.DeepEqual(tc.into, tc.head) {
			t.Errorf("%s header decodes to %+v (%v), want %+v", tc.name, tc.into, err, tc.head)
		}
	}
}
