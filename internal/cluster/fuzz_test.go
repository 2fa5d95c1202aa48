package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"io"
	"runtime/metrics"
	"strings"
	"testing"
	"unsafe"

	"gradoop/internal/dataflow"
	"gradoop/internal/field"
)

// FuzzDecodeTelemetryBundle: a bundle arrives off a socket from another
// process, so any bytes must decode or be an error - never a panic, and never
// more elements than the input has bytes for, whatever its counts claim. What
// does decode has exactly one encoding: it re-encodes to the bytes it came
// from.
func FuzzDecodeTelemetryBundle(f *testing.F) {
	golden, _ := hex.DecodeString(goldenBundleHex)
	f.Add(golden)
	tb := testBundle()
	f.Add(encodeTelemetryBundle(&tb))
	f.Add(encodeTelemetryBundle(&telemetryBundle{}))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		b, err := decodeTelemetryBundle(raw)
		if err != nil {
			return
		}
		elems := len(b.Spans)
		for i := range b.Spans {
			elems += len(b.Spans[i].Parts) + len(b.Spans[i].Attempts)
		}
		if b.Metrics != nil {
			elems += len(b.Metrics.Families)
			for i := range b.Metrics.Families {
				fam := &b.Metrics.Families[i]
				elems += len(fam.Samples)
				for j := range fam.Samples {
					elems += len(fam.Samples[j].Labels)
				}
			}
		}
		if elems > len(raw) {
			t.Fatalf("%d bytes decoded to %d elements", len(raw), elems)
		}
		if again := encodeTelemetryBundle(b); !bytes.Equal(again, raw) {
			t.Fatalf("decoded bundle re-encodes differently\n  in %x\n out %x", raw, again)
		}
	})
}

// FuzzReadFrame: a frame arrives off a socket from another process, so any
// bytes must read as a frame or as a structured error - and so must what is
// done with a frame before a row of it is decoded: the header of its type,
// the checksum behind its body, the decode of a done report or a telemetry
// bundle, and the split of a data frame's body into the
// buckets of an exchange or of an all-gather, and of a result frame's into the
// partitions the coordinator files. Nothing panics, no bucket
// reaches past the body, and nothing is allocated but the frame's body, which
// maxFrame bounds, and a fixed allowance. (An input whose first frame claims
// more bytes than the input has is a torn frame, TestFrameTorn's: read here,
// it would allocate what it claims, up to maxFrame an input.)
func FuzzReadFrame(f *testing.F) {
	body := [][]byte{[]byte("shuffle "), nil, []byte("bucket bytes")}
	f.Add(frameBytes(frameData, headBytes(&dataFrame{JobID: 7, Seq: 3, Kind: kindAllGather, From: 1}), body...))
	rows := bucketOf(wideRows(3))
	f.Add(framed(&outFrame{typ: frameResult, head: headBytes(&attemptHead{JobID: 7, From: 1}),
		body: gatherBody(fuzzOwner, 1, []dataflow.Bucket{{}, rows, {}, bucketOf(nil)})}))
	tb := testBundle()
	f.Add(frameBytes(frameTelemetry, headBytes(&attemptHead{JobID: 7}), encodeTelemetryBundle(&tb)))
	done := goldenDone()
	f.Add(frameBytes(frameJobDone, headBytes(&attemptHead{JobID: 7, From: 1}), encodeJobDone(&done)))
	f.Add(frameBytes(frameJobDone, headBytes(&attemptHead{JobID: 7}), encodeJobDone(&jobDone{Error: "boom", PeerLost: true, LostPeers: []int{1}})))
	f.Add(framed(&outFrame{typ: frameData, head: headBytes(&dataFrame{Kind: kindExchange, From: 1}),
		body: exchangeBody(fuzzOwner, 1, 0, [][]dataflow.Bucket{nil, {rows, {}, rows, {}}, nil, {rows, {}, rows, {}}})}))
	f.Add(framed(&outFrame{typ: frameData, head: headBytes(&dataFrame{Kind: kindAllGather, From: 1}),
		body: gatherBody(fuzzOwner, 1, []dataflow.Bucket{{}, rows, {}, rows})}))
	var control bytes.Buffer
	writeJSONFrame(&control, frameHello, hello{Magic: protoMagic, Version: protoVersion})
	f.Add(control.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, frameData})
	allocated := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) >= 4 {
			if n := binary.BigEndian.Uint32(raw); n <= maxFrame && int64(n) > int64(len(raw)) {
				t.Skip("a torn frame longer than the input")
			}
		}
		metrics.Read(allocated)
		before := allocated[0].Value.Uint64()
		readAndSplit(t, raw)
		metrics.Read(allocated)
		if grew := allocated[0].Value.Uint64() - before; grew > uint64(len(raw))+64<<10 {
			t.Fatalf("%d input bytes allocated %d", len(raw), grew)
		}
	})
}

// fuzzOwner is the layout FuzzReadFrame splits by: this process, member 0,
// owns partitions 0 and 2, the sender, member 1, partitions 1 and 3.
var fuzzOwner = []int{0, 1, 0, 1}

// readAndSplit reads a frame from raw and takes it as far as a receiver does
// before decoding rows, failing t on a panic-free but unstructured error.
func readAndSplit(t *testing.T, raw []byte) {
	typ, payload, err := readFrame(bufio.NewReader(bytes.NewReader(raw)), nil)
	if err != nil {
		if err != io.EOF {
			structured(t, err)
		}
		return
	}
	if len(payload)+1 > maxFrame {
		t.Fatalf("a frame of %d bytes passed the %d limit", len(payload)+1, maxFrame)
	}
	var c field.Codec
	switch typ {
	case frameData:
		var h dataFrame
		c = field.Reader(payload)
		h.layout(&c)
	case frameResult, frameJobDone, frameTelemetry:
		var h attemptHead
		c = field.Reader(payload)
		h.layout(&c)
	default:
		return // a control frame: JSON
	}
	checked, err := checkedBody(&c)
	if err != nil {
		structured(t, err)
	}
	if err == nil {
		switch typ {
		case frameTelemetry:
			_, err = decodeTelemetryBundle(checked)
		case frameJobDone:
			_, err = decodeJobDone(checked)
		}
		if err != nil {
			structured(t, err)
		}
	}
	if typ == frameTelemetry || typ == frameJobDone || c.Err() != nil || len(c.Rest()) < crcTrailer {
		return
	}
	// The split of a body that failed its checksum too: the checksum is what
	// stops a corrupt body in production, not what the fuzzer should stop at.
	body := c.Rest()[:len(c.Rest())-crcTrailer]
	if typ == frameData {
		incoming := [][][]byte{make([][]byte, 4), nil, make([][]byte, 4), nil}
		if err := splitExchange(fuzzOwner, 0, 1, body, incoming); err != nil {
			structured(t, err)
		}
		within(t, body, incoming[0], incoming[2])
	}
	// An all-gather's body, and a result's as the coordinator files it.
	out := make([][]byte, 4)
	if err := splitAllGather(fuzzOwner, 1, body, out); err != nil {
		structured(t, err)
	}
	within(t, body, out)
}

// structured fails t unless err is one of the protocol's own errors.
func structured(t *testing.T, err error) {
	t.Helper()
	if !strings.HasPrefix(err.Error(), "cluster: ") {
		t.Fatalf("unstructured rejection: %v", err)
	}
}

// within fails t unless every filed bucket is a view of body, each ending
// inside it and together no longer than it.
func within(t *testing.T, body []byte, filed ...[][]byte) {
	t.Helper()
	total := 0
	for _, bs := range filed {
		for _, b := range bs {
			if len(b) == 0 {
				continue
			}
			total += len(b)
			start := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
			lo := uintptr(unsafe.Pointer(unsafe.SliceData(body)))
			if start < lo || start+uintptr(cap(b)) > lo+uintptr(len(body)) {
				t.Fatalf("a bucket of %d bytes reaches outside the %d-byte body", len(b), len(body))
			}
		}
	}
	if total > len(body) {
		t.Fatalf("%d bytes of buckets filed from a %d-byte body", total, len(body))
	}
}
