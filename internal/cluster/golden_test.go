package cluster

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"
	"time"

	"gradoop/internal/dataflow"
	"gradoop/internal/embedding"
	"gradoop/internal/epgm"
	"gradoop/internal/obs"
	"gradoop/internal/session"
	"gradoop/internal/trace"
)

// The hex below pins every binary message a worker and its coordinator
// exchange, as the sender puts it on the socket where the message is a frame
// of its own: a change to a layout function must reproduce it byte for byte
// or bump protoVersion. The spans and the snapshot were pinned first at the
// commit before the message codecs were rewritten on internal/field, inside
// the telemetry bundle that carried them until protocol version 10; version
// 10 moved the spans into the done report and the snapshot onto the pong,
// and put the job spec, once JSON, on field.Codec.

// goldenSpans are a span with parts and attempts (one failed), and an empty
// span.
func goldenSpans() []trace.Span {
	return []trace.Span{
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
	}
}

// goldenSnapshot is a registry snapshot with a labelled family, an unlabelled
// one and one without samples.
func goldenSnapshot() *obs.Snapshot {
	return &obs.Snapshot{Families: []obs.MetricFamily{
		{Name: "gradoop_stage_retries_total", Help: "retries", Type: "counter",
			Samples: []obs.MetricSample{
				{Labels: []string{"kind", "join"}, Value: 2},
				{Suffix: "_sum", Labels: []string{"kind", "map", "quantile", "0.5"}, Value: -0.25},
			}},
		{Name: "gradoop_worker_jobs_total", Help: "jobs", Type: "counter",
			Samples: []obs.MetricSample{{Value: 7}}},
		{Name: "gradoop_worker_idle", Type: "gauge"},
	}}
}

// goldenSpec is a job spec with every field set.
func goldenSpec() jobSpec {
	return jobSpec{
		JobID: 42, Attempt: 1, Query: "MATCH (p:Person) RETURN p.firstName",
		Params: []byte{0, 0, 0, 1, 'n'}, Snapshot: 3, Workers: 4, Owner: []int{0, 1, 1, 0},
		Procs: []procSpec{{Node: "w0", Addr: "127.0.0.1:7001"}, {Node: "w1", Addr: "127.0.0.1:7002"}},
		Self:  1, Vertex: 1, Edge: 2, Fingerprint: "00112233aabbccdd", TimeoutNs: int64(time.Second),
		TraceID: "job-0000002a", Traced: true,
	}
}

const goldenJobHex = "" +
	"000000000000002a00000001000000234d415443482028703a506572736f6e292052455455524e20702e66697273744e" +
	"616d6500000005000000016e000000000000000300000004000000040000000000000001000000010000000000000002" +
	"0000000277300000000e3132372e302e302e313a373030310000000277310000000e3132372e302e302e313a37303032" +
	"0000000100000001000000020000001030303131323233336161626263636464000000003b9aca000000000c6a6f622d" +
	"303030303030326101"

// TestJobSpecGolden pins a job frame's body in both directions.
func TestJobSpecGolden(t *testing.T) {
	want, err := hex.DecodeString(goldenJobHex)
	if err != nil {
		t.Fatal(err)
	}
	spec := goldenSpec()
	if got := encodeJobSpec(&spec); !bytes.Equal(got, want) {
		t.Fatalf("job spec bytes moved\n got %x\nwant %x", got, want)
	}
	var got jobSpec
	if err := decodeJobSpec(want, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, spec) {
		t.Fatalf("golden bytes decode to\n%+v\nwant\n%+v", got, spec)
	}
}

// goldenDone is a successful attempt's done report: two stages (one a
// shuffle), a metrics snapshot of two workers, and no spans - those of an
// untraced request.
func goldenDone() jobDone {
	return jobDone{
		attemptHead: attemptHead{JobID: 42, Attempt: 1, From: 1},
		ElapsedNs:   int64(12 * time.Millisecond),
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

// goldenResult is the result of goldenDone's sender, roster member 1 of
// owner map {0, 1, 0, 1}: a row of partition 1 and an empty partition 3.
func goldenResult() []segment {
	rows := bucketOf([]embedding.Embedding{embedding.Embedding{}.AppendID(1).AppendProps(epgm.PVString("Leipzig"))})
	return gatherBody([]int{0, 1, 0, 1}, 1, []dataflow.Bucket{{}, rows, {}, bucketOf(nil)})
}

var goldenDoneHex = map[string]string{
	"untraced": "" +
		"000001a805000000000000002a000000010000000100000000000000000000000000b71b000000000200000000000000" +
		"01000000047363616e00000007466c61744d617000000000000000038400000000000004b00000000000000000000000" +
		"000000000000000000000000020000000a6a6f696e206b6e6f77730000000753687566666c6501000000000000138800" +
		"00000000000fa0000000000000200000000000000023280000000200000002000000000000000a000000000000001400" +
		"000002000000000000000000000000000020000000000200000000000000000000000000000000000000020000000000" +
		"000040000000000000000000000000000000020000000000000001000000000000001e00000000000020000000000000" +
		"000000000000000000004000000000000000140000000000000000000000000000000100000000000000010000000000" +
		"00000000000000002dc6c000000000000003e80000000000000000000000000000000100000025000000010000001d00" +
		"0000090000000000000000000000000104000000074c6569707a6967000000030000000400000000ebb89513",
	"traced": "" +
		"000002db05000000000000002a000000010000000100000000000000000000000000b71b000000000200000000000000" +
		"01000000047363616e00000007466c61744d617000000000000000038400000000000004b00000000000000000000000" +
		"000000000000000000000000020000000a6a6f696e206b6e6f77730000000753687566666c6501000000000000138800" +
		"00000000000fa0000000000000200000000000000023280000000200000002000000000000000a000000000000001400" +
		"000002000000000000000000000000000020000000000200000000000000000000000000000000000000020000000000" +
		"000040000000000000000000000000000000020000000000000001000000000000001e00000000000020000000000000" +
		"000000000000000000004000000000000000140000000000000000000000000000000100000000000000010000000000" +
		"00000000000000002dc6c000000000000003e800000000000000000000000200000000000000030000000a6a6f696e20" +
		"6b6e6f7773000000046a6f696e0100000002000000000003d09000000000000dbba00000000200000000000000640000" +
		"00000000005a00000000000000be00000000000020000000000000000000000000000000100000000000000000000000" +
		"0000000000000000000000000050000000000000005000000000000000a0000000000000000000000000000002000000" +
		"0000000000000000000000000bb80000000000000001000000030000000000000000000000000003d090000000000009" +
		"27c0000000000100000000000000000003d47800000000000493e001000000010000000100000000000497c800000000" +
		"000dbba00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000" +
		"00000000000100000025000000010000001d000000090000000000000000000000000104000000074c6569707a696700" +
		"000003000000040000000063e608e3",
	"failed": "" +
		"000000cb05000000000000002a000000010000000200000012636c75737465723a2070656572206c6f73740000000200" +
		"000000000000020000000000b71b00000000000000000000000000000000000000000000000000000000000000000000" +
		"000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000" +
		"000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000" +
		"0000000000000000000000fce5fe80",
}

// TestDoneReportGolden pins the done frame - and with it the metrics
// snapshot's layout of internal/dataflow and the span layout of
// internal/trace - in its three forms, in both directions: an untraced
// attempt's with its result, a traced one's with its spans and result, and a
// failed one's, which names its lost peers and carries neither.
func TestDoneReportGolden(t *testing.T) {
	traced := goldenDone()
	traced.Spans = goldenSpans()
	forms := map[string]struct {
		done   jobDone
		result []segment
	}{
		"untraced": {goldenDone(), goldenResult()},
		"traced":   {traced, goldenResult()},
		"failed":   {jobDone{attemptHead: attemptHead{JobID: 42, Attempt: 1, From: 2}, Error: "cluster: peer lost", LostPeers: []int{0, 2}, ElapsedNs: int64(12 * time.Millisecond)}, nil},
	}
	for name, form := range forms {
		want, err := hex.DecodeString(goldenDoneHex[name])
		if err != nil {
			t.Fatal(err)
		}
		if got := framed(&outFrame{typ: frameJobDone, body: doneBody(&form.done, form.result)}); !bytes.Equal(got, want) {
			t.Errorf("%s done frame bytes moved\n got %x\nwant %x", name, got, want)
			continue
		}
		typ, payload, err := readFrame(bufio.NewReader(bytes.NewReader(want)), nil)
		if err != nil || typ != frameJobDone {
			t.Fatalf("%s done frame reads as type %d, %v", name, typ, err)
		}
		body, err := sealedBody(payload)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeJobDone(body)
		if err != nil {
			t.Fatal(err)
		}
		wantDone := form.done
		wantDone.Result = got.Result
		if !reflect.DeepEqual(*got, wantDone) || !bytes.Equal(got.Result, encoded(form.result...)) {
			t.Errorf("%s golden bytes decode to\n%+v\nwant\n%+v", name, *got, wantDone)
		}
	}
}

const goldenPongHex = "" +
	"0000010408000000030000001b677261646f6f705f73746167655f726574726965735f746f74616c0000000772657472" +
	"69657300000007636f756e746572000000020000000000000002000000046b696e64000000046a6f696e400000000000" +
	"0000000000045f73756d00000004000000046b696e64000000036d6170000000087175616e74696c6500000003302e35" +
	"bfd000000000000000000019677261646f6f705f776f726b65725f6a6f62735f746f74616c000000046a6f6273000000" +
	"07636f756e746572000000010000000000000000401c00000000000000000013677261646f6f705f776f726b65725f69" +
	"646c65000000000000000567617567650000000074fd18d4"

// TestPongGolden pins a pong that carries a registry snapshot - and with it
// the snapshot's layout of internal/obs - in both directions.
func TestPongGolden(t *testing.T) {
	want, err := hex.DecodeString(goldenPongHex)
	if err != nil {
		t.Fatal(err)
	}
	snap := goldenSnapshot()
	if got := frameBytes(framePong, nil, encodeSnapshot(snap)); !bytes.Equal(got, want) {
		t.Fatalf("pong bytes moved\n got %x\nwant %x", got, want)
	}
	typ, payload, err := readFrame(bufio.NewReader(bytes.NewReader(want)), nil)
	if err != nil || typ != framePong {
		t.Fatalf("the pong reads as type %d, %v", typ, err)
	}
	body, err := sealedBody(payload)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeSnapshot(body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, snap) {
		t.Fatalf("golden bytes decode to\n%+v\nwant\n%+v", got, snap)
	}
}

// TestFrameHeaderGolden pins the checksummed frames as a sender puts them on
// the socket - length, type, header, body written in pieces, and the CRC32 of
// the body behind it - in both directions. Protocol version 4 moved the
// checksum from the end of the header to behind the body, and the frames
// kept their length: the same header and trailer bytes as version 3's
// headers, 7d0afa94 still the CRC of the body. A data frame's bytes have not
// moved since. Version 10 gave a done frame and a pong no header, so a done
// report's attemptHead is under the checksum, and an empty pong is its
// checksum alone.
func TestFrameHeaderGolden(t *testing.T) {
	body := [][]byte{[]byte("shuffle "), nil, []byte("bucket bytes")}
	flat := bytes.Join(body, nil)
	head := headBytes(&dataFrame{JobID: 7, Attempt: 1, Seq: 3, Kind: kindAllGather, From: 2, Stage: 9})
	for _, tc := range []struct {
		name string
		typ  byte
		head []byte
		body [][]byte
		want string
	}{
		{"data", frameData, head, body,
			"0000003a0a" + "0000000000000007000000010000000000000003010000000200000000000000" + "09" + hex.EncodeToString(flat) + "7d0afa94"},
		{"done", frameJobDone, nil, body,
			"0000001905" + hex.EncodeToString(flat) + "7d0afa94"},
		{"pong", framePong, nil, nil, "000000050800000000"},
	} {
		want, err := hex.DecodeString(tc.want)
		if err != nil {
			t.Fatal(err)
		}
		if got := frameBytes(tc.typ, tc.head, tc.body...); !bytes.Equal(got, want) {
			t.Errorf("%s frame bytes moved\n got %x\nwant %x", tc.name, got, want)
		}
		typ, payload, err := readFrame(bufio.NewReader(bytes.NewReader(want)), nil)
		if err != nil || typ != tc.typ {
			t.Fatalf("%s frame reads as type %d, %v", tc.name, typ, err)
		}
		var into dataFrame
		var got []byte
		if tc.head != nil {
			got, err = openFrame(&into, payload)
		} else {
			got, err = sealedBody(payload)
		}
		if err != nil || !bytes.Equal(got, bytes.Join(tc.body, nil)) || (tc.head != nil && !bytes.Equal(headBytes(&into), tc.head)) {
			t.Errorf("%s frame decodes to %+v, body %q (%v), want %x, %q", tc.name, into, got, err, tc.head, flat)
		}
	}
}
