package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"gradoop/internal/dataflow"
	"gradoop/internal/field"
)

// FuzzDecodeJobDone: a done report arrives off a socket from another
// process, so any body must decode - its fields, and the rest as the result -
// or be an error: never a panic, and never more elements than the input has
// bytes for, whatever its counts claim. What does decode has exactly one
// encoding: its fields re-encode, with the result behind them, to the bytes
// it came from.
func FuzzDecodeJobDone(f *testing.F) {
	for _, form := range []string{"traced", "failed"} {
		frame, _ := hex.DecodeString(goldenDoneHex[form])
		f.Add(frame[frameHeader : len(frame)-crcTrailer])
	}
	f.Add(encodeJobDone(&jobDone{}))
	f.Add(append(make([]byte, 16+4+4+8), 0x80, 0, 0, 0))
	f.Fuzz(func(t *testing.T, raw []byte) {
		d, err := decodeJobDone(raw)
		if err != nil {
			return
		}
		elems := len(d.LostPeers) + len(d.Stages) + len(d.Spans) + len(d.Metrics.CPUElements) +
			len(d.Metrics.NetBytes) + len(d.Metrics.SpillBytes) + len(d.Metrics.MemBytes)
		for i := range d.Spans {
			elems += len(d.Spans[i].Parts) + len(d.Spans[i].Attempts)
		}
		if elems > len(raw) {
			t.Fatalf("%d bytes decoded to %d elements", len(raw), elems)
		}
		if again := append(encodeJobDone(d), d.Result...); !bytes.Equal(again, raw) {
			t.Fatalf("decoded report re-encodes differently\n  in %x\n out %x", raw, again)
		}
	})
}

// FuzzDecodeJobSpec: a job frame arrives off a socket, so any body must decode
// or be an error - never a panic, never more elements than the input has
// bytes for - and what decodes re-encodes to the bytes it came from.
func FuzzDecodeJobSpec(f *testing.F) {
	golden, _ := hex.DecodeString(goldenJobHex)
	f.Add(golden)
	f.Add(encodeJobSpec(&jobSpec{}))
	f.Add(append(make([]byte, 8+4+4+4+8+4), 0x80, 0, 0, 0))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var s jobSpec
		if err := decodeJobSpec(raw, &s); err != nil {
			return
		}
		if elems := len(s.Owner) + len(s.Procs); elems > len(raw) {
			t.Fatalf("%d bytes decoded to %d elements", len(raw), elems)
		}
		if again := encodeJobSpec(&s); !bytes.Equal(again, raw) {
			t.Fatalf("decoded spec re-encodes differently\n  in %x\n out %x", raw, again)
		}
	})
}

// FuzzReadFrame: a frame arrives off a socket from another process, so any
// bytes must read as a frame or as a structured error - and so must what is
// done with a frame before a row of it is decoded: the header of its type,
// the checksum behind its body, the decode of a job spec, an abort, a done
// report or a pong's snapshot, and the split of a data frame's body into the
// buckets of an exchange or of an all-gather, and of a done report's result
// into the partitions the coordinator files. Nothing panics, no bucket
// reaches past the body, and nothing is allocated but the frame's body, which
// maxFrame bounds, and a fixed allowance. (An input whose first frame claims
// more bytes than the input has is a torn frame, TestFrameTorn's: read here,
// it would allocate what it claims, up to maxFrame an input.) The same bytes
// then come on a link a peer dialled, as the worker's router reads it
// (routed).
func FuzzReadFrame(f *testing.F) {
	body := [][]byte{[]byte("shuffle "), nil, []byte("bucket bytes")}
	f.Add(frameBytes(frameData, headBytes(&dataFrame{JobID: 7, Seq: 3, Kind: kindAllGather, From: 1}), body...))
	rows := bucketOf(wideRows(3))
	done := goldenDone()
	f.Add(framed(&outFrame{typ: frameJobDone, body: doneBody(&done, gatherBody(fuzzOwner, 1, []dataflow.Bucket{{}, rows, {}, bucketOf(nil)}))}))
	for _, form := range []string{"traced", "failed"} {
		frame, _ := hex.DecodeString(goldenDoneHex[form])
		f.Add(frame)
	}
	f.Add(frameBytes(frameJobDone, nil, encodeJobDone(&jobDone{Error: "boom", LostPeers: []int{1}})))
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
	// On a peer link: a frame of an attempt the worker does not run, a done
	// frame, and a data frame whose head is one byte short.
	f.Add(frameBytes(frameData, headBytes(&dataFrame{JobID: 8, Seq: 1, From: 1}), []byte("early")))
	f.Add(frameBytes(frameJobDone, nil, encodeJobDone(&jobDone{attemptHead: attemptHead{JobID: 7, From: 1}})))
	f.Add(frameBytes(frameData, make([]byte, dataHead-1)))
	// A pong with a snapshot and without, a job and an abort.
	pong, _ := hex.DecodeString(goldenPongHex)
	f.Add(pong)
	f.Add(frameBytes(framePong, nil))
	spec := goldenSpec()
	var job bytes.Buffer
	writeFrame(&job, frameJob, encodeJobSpec(&spec))
	writeFrame(&job, frameAbort, (&attemptHead{JobID: 42, Attempt: 1}).bytes())
	f.Add(job.Bytes())

	// The router's worker, with a receive chunk to spare so that a body carved
	// from one allocates nothing; the runtime a frame makes for an attempt the
	// worker does not run is dropped within a millisecond.
	w := NewWorkerWith("w0", nil, WorkerOptions{})
	w.orphanAfter = time.Millisecond
	w.keepSpare([][]byte{make([]byte, recvChunk)})
	// What a read allocates is read off runtime.ReadMemStats, which flushes
	// every P's allocation cache before it counts. /gc/heap/allocs:bytes
	// counts a small object only when its span leaves a cache, so a GC cycle
	// between two reads of it - likelier under -race beside a busy process -
	// publishes what the harness and earlier tests allocated before the read,
	// hundreds of KB.
	var ms runtime.MemStats
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) >= 4 {
			if n := binary.BigEndian.Uint32(raw); n <= maxFrame && int64(n) > int64(len(raw)) {
				t.Skip("a torn frame longer than the input")
			}
		}
		for _, read := range []func(){
			func() { readAndSplit(t, raw) },
			func() { routed(t, w, raw) },
		} {
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			read()
			runtime.ReadMemStats(&ms)
			if grew := ms.TotalAlloc - before; grew > uint64(len(raw))+64<<10 {
				t.Fatalf("%d input bytes allocated %d", len(raw), grew)
			}
		}
	})
}

// routed reads the first frame of raw as the router of a link a peer dialled
// to w does, while w runs attempt 7: head first, then the body into the
// receive arena of the attempt the head names. Anything but a data frame is a
// structured error, and a data frame of attempt 7 is filed in its mailbox.
func routed(t *testing.T, w *Worker, raw []byte) {
	rt := w.runtime(jobKey{job: 7}, &sender{})
	err := w.routeFrame(bufio.NewReader(bytes.NewReader(raw)))
	switch {
	case err == io.EOF:
	case err != nil:
		structured(t, err)
	case raw[frameHeader-1] != frameData:
		t.Fatalf("a frame of type %d was routed", raw[frameHeader-1])
	}
	rt.mu.Lock()
	for _, body := range rt.inbox {
		if len(body) > len(raw) {
			t.Fatalf("a %d-byte body filed from %d bytes", len(body), len(raw))
		}
	}
	rt.mu.Unlock()
	w.mu.Lock()
	rts := make([]*jobRuntime, 0, len(w.jobs))
	for _, rt := range w.jobs {
		rts = append(rts, rt)
	}
	w.mu.Unlock()
	for _, rt := range rts {
		w.dropRuntime(rt)
	}
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
	case frameJobDone, framePong:
		c = field.Reader(payload)
	case frameJob:
		var s jobSpec
		if err := decodeJobSpec(payload, &s); err != nil {
			structured(t, err)
		}
		return
	default:
		return // the handshake or the statistics: JSON, or an abort: an attemptHead
	}
	checked, err := checkedBody(&c)
	if err != nil {
		structured(t, err)
	}
	if err == nil {
		switch typ {
		case frameJobDone:
			var d *jobDone
			if d, err = decodeJobDone(checked); err == nil {
				// The result, as the coordinator files it.
				out := make([][]byte, 4)
				if err := splitAllGather(fuzzOwner, 1, d.Result, out); err != nil {
					structured(t, err)
				}
				within(t, d.Result, out)
			}
		case framePong:
			if len(checked) > 0 {
				_, err = decodeSnapshot(checked)
			}
		}
		if err != nil {
			structured(t, err)
		}
	}
	if typ != frameData || c.Err() != nil || len(c.Rest()) < crcTrailer {
		return
	}
	// The split of a body that failed its checksum too: the checksum is what
	// stops a corrupt body in production, not what the fuzzer should stop at.
	body := c.Rest()[:len(c.Rest())-crcTrailer]
	incoming := [][][]byte{make([][]byte, 4), nil, make([][]byte, 4), nil}
	if err := splitExchange(fuzzOwner, 0, 1, body, incoming); err != nil {
		structured(t, err)
	}
	within(t, body, incoming[0], incoming[2])
	// An all-gather's body.
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
