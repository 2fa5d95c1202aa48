package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"weak"

	"gradoop/internal/dataflow"
	"gradoop/internal/embedding"
	"gradoop/internal/epgm"
	"gradoop/internal/field"
)

// frameHead is a message header: a data frame's, or the attemptHead a done
// report opens with. (Tests go through the interface; the protocol calls the
// layouts directly, which keeps the header, the cursor and the checksum off
// the heap.)
type frameHead interface{ layout(*field.Codec) }

// headBytes encodes a header.
func headBytes(h frameHead) []byte {
	c := field.Appender(nil)
	h.layout(&c)
	return c.Bytes()
}

// openFrame decodes a frame payload into h and returns the checked body.
func openFrame(h frameHead, payload []byte) ([]byte, error) {
	c := field.Reader(payload)
	h.layout(&c)
	return checkedBody(&c)
}

// frameBytes is a checksummed frame as a sender puts it on the socket, its
// body the given pieces.
func frameBytes(typ byte, head []byte, body ...[]byte) []byte {
	segs := make([]segment, len(body))
	for i, b := range body {
		segs[i] = segment{raw: b}
	}
	return framed(&outFrame{typ: typ, head: head, body: segs})
}

// framed is f as the sender's writer puts it on the socket.
func framed(f *outFrame) []byte {
	var socket bytes.Buffer
	fw := newFrameWriter(&socket)
	if err := fw.frame(f); err != nil {
		panic(err)
	}
	if err := fw.bw.Flush(); err != nil {
		panic(err)
	}
	return socket.Bytes()
}

// bucketOf is rows as a result partition ships them.
func bucketOf(rows []embedding.Embedding) dataflow.Bucket {
	b, err := dataflow.FromSlice(dataflow.NewEnv(dataflow.DefaultConfig(1)), rows).Bucket(0)
	if err != nil {
		panic(err)
	}
	return b
}

// encoded is the body of a frame of these segments, as the socket carries it.
func encoded(body ...segment) []byte {
	frame := framed(&outFrame{typ: frameJobDone, body: body})
	return frame[frameHeader : len(frame)-crcTrailer]
}

// TestFrameRoundTrip pins the framing: length prefix, type byte, payload.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello frames")
	if err := writeFrame(&buf, frameData, payload); err != nil {
		t.Fatal(err)
	}
	typ, got, err := readFrame(bufio.NewReader(&buf), nil)
	if err != nil {
		t.Fatal(err)
	}
	if typ != frameData || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: type %d payload %q", typ, got)
	}
}

// TestFrameTorn checks that a frame cut off mid-payload surfaces as
// io.ErrUnexpectedEOF instead of a misparse of the next read.
func TestFrameTorn(t *testing.T) {
	var buf bytes.Buffer
	writeFrame(&buf, frameData, []byte("0123456789"))
	torn := buf.Bytes()[:buf.Len()-4]
	_, _, err := readFrame(bufio.NewReader(bytes.NewReader(torn)), nil)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn frame: got %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestFrameTruncatedHeader checks a read that dies inside the length prefix.
func TestFrameTruncatedHeader(t *testing.T) {
	_, _, err := readFrame(bufio.NewReader(bytes.NewReader([]byte{0, 0})), nil)
	if err == nil {
		t.Fatal("truncated header accepted")
	}
}

// TestFrameOversizedLength checks that a hostile length prefix is rejected
// before any allocation.
func TestFrameOversizedLength(t *testing.T) {
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], maxFrame+1)
	_, _, err := readFrame(bufio.NewReader(bytes.NewReader(hdr[:])), nil)
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized length: got %v", err)
	}
}

// TestFrameZeroLength checks that a zero-length prefix (no type byte) is
// rejected.
func TestFrameZeroLength(t *testing.T) {
	_, _, err := readFrame(bufio.NewReader(bytes.NewReader([]byte{0, 0, 0, 0})), nil)
	if err == nil || !strings.Contains(err.Error(), "zero-length") {
		t.Fatalf("zero-length frame: got %v", err)
	}
}

// TestDataFrameCRC checks that payload corruption is caught by the per-frame
// checksum, taken over a body that is written in pieces and read as one.
func TestDataFrameCRC(t *testing.T) {
	head := headBytes(&dataFrame{JobID: 7, Attempt: 1, Seq: 3, Kind: kindExchange, From: 2, Stage: 9})
	wire := bytes.NewReader(frameBytes(frameData, head, []byte("shuffle "), nil, []byte("bucket bytes")))
	typ, enc, err := readFrame(bufio.NewReader(wire), nil)
	if err != nil || typ != frameData {
		t.Fatalf("frame type %d, err %v", typ, err)
	}
	var f dataFrame
	got, err := openFrame(&f, enc)
	if err != nil {
		t.Fatal(err)
	}
	if f.JobID != 7 || f.Attempt != 1 || f.Seq != 3 || f.From != 2 || f.Stage != 9 {
		t.Fatalf("header mismatch: %+v", f)
	}
	if string(got) != "shuffle bucket bytes" {
		t.Fatalf("body %q", got)
	}
	for _, at := range []int{len(head), len(enc) - crcTrailer - 1, len(enc) - 1} { // body, its last byte, the trailer
		enc[at] ^= 0x40
		if _, err := openFrame(&f, enc); err == nil || !strings.Contains(err.Error(), "CRC") {
			t.Fatalf("byte %d flipped: got %v, want CRC mismatch", at, err)
		}
		enc[at] ^= 0x40
	}
	if _, err := openFrame(&f, enc[:len(head)+crcTrailer-1]); err == nil || !strings.Contains(err.Error(), "trailer") {
		t.Fatalf("a frame shorter than its trailer: got %v", err)
	}
	if _, err := openFrame(&f, enc[:len(head)-2]); err == nil {
		t.Fatal("truncated data header accepted")
	}
}

// TestResultFrameCRC: an attempt's result rides its done frame, the gather
// of the sender's partitions behind the report's fields, checksummed with
// them like a shuffle bucket - a flipped bit anywhere in the frame is a
// structured error, where it used to be a decode error by luck and a wrong
// row otherwise.
func TestResultFrameCRC(t *testing.T) {
	rows := bucketOf([]embedding.Embedding{
		embedding.Embedding{}.AppendID(1).AppendProps(epgm.PVString("Leipzig")),
		embedding.Embedding{}.AppendID(2).AppendProps(epgm.PVString("Dresden")),
	})
	owner := []int{0, 1, 0, 1}
	result := gatherBody(owner, 1, []dataflow.Bucket{{}, rows, {}, bucketOf(nil)})
	report := jobDone{attemptHead: attemptHead{JobID: 7, Attempt: 1, From: 1}}
	enc := framed(&outFrame{typ: frameJobDone, body: doneBody(&report, result)})[frameHeader:]
	body, err := sealedBody(enc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeJobDone(body)
	if err != nil {
		t.Fatal(err)
	}
	filed := make([][]byte, len(owner))
	if got.attemptHead != report.attemptHead || !bytes.Equal(got.Result, encoded(result...)) {
		t.Fatalf("round trip: %+v, result %x", got.attemptHead, got.Result)
	}
	if err := splitAllGather(owner, got.From, got.Result, filed); err != nil || !bytes.Equal(filed[1], encoded(segment{bucket: rows})) ||
		len(filed[3]) != 4 || filed[0] != nil || filed[2] != nil {
		t.Fatalf("the result files as %x (%v)", filed, err)
	}
	for i := range enc { // the head, the fields, the result and the trailer
		enc[i] ^= 0x01
		if _, err := sealedBody(enc); err == nil || !strings.Contains(err.Error(), "CRC") {
			t.Fatalf("bit flipped at byte %d: got %v, want CRC mismatch", i, err)
		}
		enc[i] ^= 0x01
	}
}

// TestCorruptResultFailsTheMember: the coordinator answers a done frame that
// fails its checksum by dropping the worker that sent it - the attempt
// settles as a loss and is retried - never by assembling the rows.
func TestCorruptResultFailsTheMember(t *testing.T) {
	client, server := net.Pipe()
	c := &Coordinator{inst: newClusterInstruments(nil), pending: map[jobKey]*attemptState{}}
	m := &member{idx: 0, node: "w0", conn: server, send: newSender(server), alive: true}
	c.members = []*member{m}
	st := newAttemptState(jobKey{job: 7}, []int{0}, []int{0})
	c.pending[st.key] = st
	read := make(chan struct{})
	go func() {
		c.readMember(m, bufio.NewReader(server))
		close(read)
	}()
	// Partition 0, an empty bucket: the result says one row, the trailer was
	// taken over none.
	report := jobDone{attemptHead: attemptHead{JobID: 7}}
	frame := frameBytes(frameJobDone, nil, encodeJobDone(&report), []byte{0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0})
	frame[len(frame)-crcTrailer-1] = 1
	if _, err := client.Write(frame); err != nil {
		t.Fatal(err)
	}
	<-read
	client.Close()
	if m.isAlive() {
		t.Fatal("member survived a corrupt done frame")
	}
	if out := st.classify(); !out.recoverable || len(st.dones) != 0 {
		t.Fatalf("attempt after a corrupt done frame: %+v with %d reports delivered", out, len(st.dones))
	}
}

// TestFramesNeverShareBytes pins what lets decoded rows be views: readFrame
// gives every frame a body of its own - a heap allocation, or a piece of a
// worker attempt's receive arena clipped to its length - so the rows of one
// frame survive the next frame arriving through the same reader, and being
// scribbled over. (That the arena is reused only once its attempt has ended
// and no frame is being read into it is TestInFlightFrameHoldsTheArena.)
func TestFramesNeverShareBytes(t *testing.T) {
	bucket := func(tag int64) []byte {
		rows := make([]embedding.Embedding, 50)
		for i := range rows {
			rows[i] = embedding.Embedding{}.AppendID(epgm.ID(i)).AppendProps(epgm.PVInt(tag), epgm.PVString("name"))
		}
		return encoded(segment{bucket: bucketOf(rows)})
	}
	for name, into := range map[string]*jobRuntime{
		"heap":  nil,
		"arena": newJobRuntime(NewWorkerWith("w0", nil, WorkerOptions{}), jobKey{job: 1}),
	} {
		var wire bytes.Buffer
		for tag := int64(1); tag <= 2; tag++ {
			if err := writeFrame(&wire, frameData, bucket(tag)); err != nil {
				t.Fatal(err)
			}
		}
		br := bufio.NewReaderSize(&wire, 64) // smaller than a frame, like a busy socket
		decode := func() ([]byte, []embedding.Embedding) {
			_, body, err := readFrame(br, into)
			if err != nil {
				t.Fatal(err)
			}
			if cap(body) != len(body) {
				t.Fatalf("%s: a body of %d bytes has room for %d", name, len(body), cap(body))
			}
			rows := make([]embedding.Embedding, 50)
			if err := dataflow.DecodeBucket(rows, body); err != nil {
				t.Fatal(err)
			}
			return body, rows
		}
		firstBody, first := decode()
		want := make([]string, len(first))
		for i, e := range first {
			want[i] = e.String()
		}
		second, _ := decode()
		if overlaps(firstBody, second) {
			t.Fatalf("%s: two frames share bytes", name)
		}
		for i := range second {
			second[i] = 0xee
		}
		for i, e := range first {
			if got := e.String(); got != want[i] {
				t.Fatalf("%s: row %d of the first frame reads %s after the second was overwritten, want %s", name, i, got, want[i])
			}
		}
	}
}

// TestHandshakeVersionMismatch dials a worker as a version 4 peer would -
// one that ships a result frame per partition - and requires a structured
// frameReject, then a close.
func TestHandshakeVersionMismatch(t *testing.T) {
	w := NewWorkerWith("w0", nil, WorkerOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go w.Serve(ln)
	defer w.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeJSONFrame(conn, frameHello, hello{
		Magic: protoMagic, Version: 4, Role: roleControl,
	}); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	typ, payload, err := readFrame(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if typ != frameReject {
		t.Fatalf("frame type %d, want frameReject", typ)
	}
	var rej reject
	if err := json.Unmarshal(payload, &rej); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rej.Reason, "protocol mismatch") {
		t.Fatalf("reject reason %q", rej.Reason)
	}
	if _, _, err := readFrame(br, nil); err == nil {
		t.Fatal("connection stayed open after reject")
	}
}

// TestHandshakeBadMagic mirrors the version check for the magic number.
func TestHandshakeBadMagic(t *testing.T) {
	w := NewWorkerWith("w0", nil, WorkerOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go w.Serve(ln)
	defer w.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	writeJSONFrame(conn, frameHello, hello{Magic: 0xDEADBEEF, Version: protoVersion, Role: roleControl})
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	typ, _, err := readFrame(bufio.NewReader(conn), nil)
	if err != nil || typ != frameReject {
		t.Fatalf("got type %d err %v, want frameReject", typ, err)
	}
}

// TestDialRejectsForeignWelcome: the client half of the handshake holds the
// welcome to this build's magic and version in both roles. A worker dialing a
// peer of another build used to take any welcome.
func TestDialRejectsForeignWelcome(t *testing.T) {
	for _, role := range []string{roleControl, rolePeer} {
		for name, wl := range map[string]welcome{
			"version": {Magic: protoMagic, Version: protoVersion + 1, Node: "other"},
			"magic":   {Magic: 0xDEADBEEF, Version: protoVersion, Node: "other"},
		} {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			served := make(chan error, 1)
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					served <- err
					return
				}
				defer conn.Close()
				if _, _, err := readFrame(bufio.NewReader(conn), nil); err != nil {
					served <- err
					return
				}
				served <- writeJSONFrame(conn, frameWelcome, wl)
			}()
			conn, _, _, err := dialHello(ln.Addr().String(), hello{Magic: protoMagic, Version: protoVersion, Role: role, Node: "w0"})
			if err == nil {
				conn.Close()
				t.Errorf("%s dial took a welcome with a foreign %s", role, name)
			} else if !strings.Contains(err.Error(), "another build") {
				t.Errorf("%s dial, foreign %s: %v", role, name, err)
			}
			if err := <-served; err != nil {
				t.Errorf("%s dial, foreign %s: the fake peer: %v", role, name, err)
			}
			ln.Close()
		}
	}
}

// TestMidStreamDropFailsCollective severs the link a peer dialled while a
// collective is waiting on that peer and requires a structured ErrPeerLost,
// not a hang.
func TestMidStreamDropFailsCollective(t *testing.T) {
	w := NewWorkerWith("w0", nil, WorkerOptions{})
	rt := w.runtime(jobKey{job: 1}, &sender{})
	client, server := net.Pipe()
	defer client.Close()
	go w.route("w1", bufio.NewReader(server))

	errCh := make(chan error, 1)
	go func() {
		_, err := rt.waitMail(mailKey{seq: 1, kind: kindExchange, from: 1}, "w1")
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	client.Close() // the drop

	select {
	case err := <-errCh:
		if !errors.Is(err, ErrPeerLost) {
			t.Fatalf("got %v, want ErrPeerLost", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("collective hung after mid-stream drop")
	}
}

// TestMailBeforeDropStillConsumable: frames a peer delivered before its link
// dropped stay readable from the inbox; the collective after them fails.
func TestMailBeforeDropStillConsumable(t *testing.T) {
	w := NewWorkerWith("w0", nil, WorkerOptions{})
	rt := w.runtime(jobKey{job: 1}, &sender{})
	client, server := net.Pipe()
	routed := make(chan struct{})
	go func() {
		w.route("w1", bufio.NewReader(server))
		close(routed)
	}()

	frame := frameBytes(frameData, headBytes(&dataFrame{JobID: 1, Seq: 1, Kind: kindExchange, From: 1}), []byte("owed"))
	go func() {
		client.Write(frame)
		client.Close()
	}()
	<-routed // reader saw the frame, then the close

	got, err := rt.waitMail(mailKey{seq: 1, kind: kindExchange, from: 1}, "w1")
	if err != nil {
		t.Fatalf("mail delivered before the drop must stay consumable: %v", err)
	}
	if string(got) != "owed" {
		t.Fatalf("mail body %q", got)
	}
	// The next, never-sent collective must fail instead of hanging.
	if _, err := rt.waitMail(mailKey{seq: 2, kind: kindExchange, from: 1}, "w1"); !errors.Is(err, ErrPeerLost) {
		t.Fatalf("owed collective after drop: got %v, want ErrPeerLost", err)
	}
}

// TestSenderCoalescing checks the write path end to end: many frames
// enqueued back to back all arrive intact and in order, and a sender that has
// been aborted takes no frame.
func TestSenderCoalescing(t *testing.T) {
	client, server := net.Pipe()
	s := newSender(client)

	const frames = 200
	var wg sync.WaitGroup
	wg.Add(1)
	received := make([][]byte, 0, frames)
	var readErr error
	go func() {
		defer wg.Done()
		br := bufio.NewReader(server)
		for len(received) < frames {
			_, payload, err := readFrame(br, nil)
			if err != nil {
				readErr = err
				return
			}
			received = append(received, payload)
		}
	}()
	for i := 0; i < frames; i++ {
		if _, err := s.send(frameJob, binary.BigEndian.AppendUint32(nil, uint32(i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	s.abort()
	if readErr != nil {
		t.Fatal(readErr)
	}
	for i, p := range received {
		if int(binary.BigEndian.Uint32(p)) != i {
			t.Fatalf("frame %d out of order: %v", i, p)
		}
	}
	if _, err := s.send(frameJob, nil, nil); err == nil {
		t.Fatal("send after abort succeeded")
	}
}

// TestOrphanRuntimeIsDropped: a peer's data frame for an attempt no job frame
// claims - the worker was aborted and has dropped the attempt while a slower
// peer was still sending, the normal order of events after an abort - makes a
// runtime for it, which lives orphanAfter; one the job frame claims in time
// lives until its job ends. The link is the peer's and not the attempt's: it
// outlives the orphan and carries the next attempt's frames.
func TestOrphanRuntimeIsDropped(t *testing.T) {
	w := NewWorkerWith("w0", nil, WorkerOptions{})
	w.orphanAfter = 20 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go w.Serve(ln)
	defer w.Close()
	runtimes := func(want int) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			w.mu.Lock()
			n := len(w.jobs)
			w.mu.Unlock()
			if n == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d runtimes, want %d", n, want)
			}
		}
	}

	conn, _, _, err := dialHello(ln.Addr().String(), hello{Magic: protoMagic, Version: protoVersion, Role: rolePeer, Node: "w1"})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	send := func(job uint64, body string) {
		t.Helper()
		if _, err := conn.Write(frameBytes(frameData, headBytes(&dataFrame{JobID: job, Seq: 1, From: 1}), []byte(body))); err != nil {
			t.Fatal(err)
		}
	}
	send(99, "early")
	runtimes(1) // the frame's runtime
	runtimes(0) // dropped, as nobody claimed it

	send(100, "claimed")
	runtimes(1)
	claimed := w.runtime(jobKey{job: 100}, &sender{})
	if body, err := claimed.waitMail(mailKey{seq: 1, from: 1}, "w1"); err != nil || string(body) != "claimed" {
		t.Fatalf("the job frame's runtime holds %q (%v), want the frame that made it", body, err)
	}
	time.Sleep(5 * w.orphanAfter)
	runtimes(1)
	w.dropRuntime(claimed)
	runtimes(0)
}

// TestOrphanTimerPinsNothing: the timer of a runtime a peer's frame made before
// its job frame came is still pending when its attempt has ended, and must not
// be what keeps the runtime,
// and behind it the worker and its graph, in memory until it fires.
func TestOrphanTimerPinsNothing(t *testing.T) {
	w := NewWorkerWith("w0", nil, WorkerOptions{}) // orphanAfter is handshakeTimeout: the timer outlives the test
	rt := w.runtime(jobKey{job: 1}, nil)
	w.runtime(jobKey{job: 1}, &sender{})
	w.dropRuntime(rt)
	ref := weak.Make(rt)
	rt, w = nil, nil
	runtime.GC()
	if ref.Value() != nil {
		t.Fatal("the runtime of an ended attempt is still reachable: its orphan timer holds it")
	}
}
