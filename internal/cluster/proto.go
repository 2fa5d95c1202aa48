// Package cluster executes planned Cypher queries across real OS processes:
// a coordinator (embedded in the session server) plans once on its pinned
// statistics and ships the job to worker processes, each holding the full
// graph data and owning a subset of the logical partitions. Workers run the
// identical deterministic dataflow program (SPMD — see dataflow.Transport)
// and exchange shuffle data directly with each other over TCP using the
// length-prefixed binary frame protocol in this file. A lost worker
// (connection drop or missed heartbeat) aborts the attempt; the coordinator
// remaps the dead worker's partitions onto the survivors and re-runs the
// job, which is guaranteed to produce the byte-identical result because
// partition contents and assembly order are fixed by the program, not by
// the ownership assignment.
package cluster

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"time"

	"gradoop/internal/dataflow"
	"gradoop/internal/field"
	"gradoop/internal/session"
	"gradoop/internal/stats"
)

// Protocol constants. The magic/version pair is verified in both directions
// of the handshake; a mismatch is rejected with a structured reason instead
// of letting two incompatible builds exchange garbage.
const (
	protoMagic = 0x47524450 // "GRDP"
	// protoVersion 7: the done report is a sealed binary frame headed like a
	// result (attemptHead), the welcome carries the worker's telemetry bit, a
	// job spec says whether its request is traced, and a telemetry bundle
	// carries either an attempt's spans or the worker's registry, never both.
	// 6: the statistics snapshot is a frame of its own, sent once
	// per control connection ahead of the first job that names its id.
	// 5: an attempt's result is one frame, headed like a telemetry
	// frame (attemptHead), whose body is a gather of the sender's partitions.
	// 4: a data, result or telemetry frame carries its checksum behind the
	// body, which is written from the rows as it is sent (head | body |
	// crc32). 3: the job spec carries no join hint and no reuse switch
	// (nothing set them). 2: a row travels as its in-memory buffer behind one
	// length (embedding.AppendWire), and result frames carry a checksum.
	protoVersion = 7

	// maxFrame bounds a frame's declared length. A torn or hostile length
	// prefix is rejected before any allocation, and a worker holds a frame of
	// rows to it before it queues one (fits).
	maxFrame = 256 << 20

	// frameHeader is the fixed per-frame overhead: uint32 length + type byte.
	frameHeader = 5

	// crcTrailer is what a checksummed frame carries behind its body: the
	// CRC32 of the body.
	crcTrailer = 4
)

// Frame types. Control payloads (hello, job, stats, abort) are JSON inside
// the binary framing — they are rare and small; what a worker sends about an
// attempt (result, done, telemetry) and the hot path (data) are binary.
const (
	frameHello   = byte(1)  // connection opener, both roles
	frameWelcome = byte(2)  // handshake accept
	frameReject  = byte(3)  // handshake refusal, then close
	frameJob     = byte(4)  // coordinator -> worker: run this job
	frameJobDone = byte(5)  // worker -> coordinator: job finished (ok or not)
	frameResult  = byte(6)  // worker -> coordinator: an attempt's rows, its owned partitions
	frameAbort   = byte(7)  // coordinator -> worker: stop an attempt
	framePing    = byte(8)  // coordinator -> worker liveness probe
	framePong    = byte(9)  // worker -> coordinator liveness answer
	frameData    = byte(10) // worker <-> worker: one collective's buckets
	// frameTelemetry ships a telemetry bundle: a traced attempt's spans, sent
	// on the control connection immediately before the attempt's
	// frameJobDone, so a done report is the guarantee that the bundle - if
	// the worker ships one - has already arrived; or the worker's registry
	// snapshot, headed by job 0, sent once a connection is up and then ahead
	// of the pong to a ping when a job has finished since the last one.
	frameTelemetry = byte(11)
	// frameStats ships a statistics snapshot (statsMsg) on a control
	// connection, ahead of the first job frame that names it.
	frameStats = byte(12)
)

// Exchange kinds inside a data frame.
const (
	kindExchange  = byte(0)
	kindAllGather = byte(1)
)

// Roles a connecting peer announces in its hello.
const (
	roleControl = "control" // coordinator -> worker
	rolePeer    = "peer"    // worker -> worker, scoped to one job attempt
)

// hello opens every connection.
type hello struct {
	Magic   uint32 `json:"magic"`
	Version int    `json:"version"`
	Role    string `json:"role"`
	Node    string `json:"node"`
	// Peer connections are scoped to one job attempt; From is the dialing
	// worker's roster index within it.
	JobID   uint64 `json:"jobId,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	From    int    `json:"from,omitempty"`
}

// welcome acknowledges a hello. Telemetry is whether the worker ships
// telemetry at all (WorkerOptions.NoTelemetry unset).
type welcome struct {
	Magic     uint32 `json:"magic"`
	Version   int    `json:"version"`
	Node      string `json:"node"`
	Telemetry bool   `json:"telemetry,omitempty"`
}

// reject refuses a hello.
type reject struct {
	Reason string `json:"reason"`
}

// dialHello is the client half of the handshake, for both roles: dial, say
// h, and read the answer, all within handshakeTimeout. A connection comes
// back only behind a welcome that names this build's magic and version; a
// reject, a welcome from another build or any other frame closes it. The
// reader holds whatever the peer sent after its welcome.
func dialHello(addr string, h hello) (net.Conn, *bufio.Reader, welcome, error) {
	var wl welcome
	conn, err := net.DialTimeout("tcp", addr, handshakeTimeout)
	if err != nil {
		return nil, nil, wl, err
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	err = writeJSONFrame(conn, frameHello, h)
	var typ byte
	var payload []byte
	if err == nil {
		typ, payload, err = readFrame(br, nil)
	}
	switch {
	case err != nil:
	case typ == frameReject:
		var rej reject
		json.Unmarshal(payload, &rej) // a reject that does not parse is still a reject
		err = fmt.Errorf("rejected: %s", rej.Reason)
	case typ != frameWelcome:
		err = fmt.Errorf("unexpected handshake frame %d", typ)
	default:
		if err = json.Unmarshal(payload, &wl); err == nil && (wl.Magic != protoMagic || wl.Version != protoVersion) {
			err = fmt.Errorf("welcome from another build: magic %#x version %d, want %#x version %d",
				wl.Magic, wl.Version, protoMagic, protoVersion)
		}
	}
	if err != nil {
		conn.Close()
		return nil, nil, wl, err
	}
	conn.SetDeadline(time.Time{})
	return conn, br, wl, nil
}

// procSpec is one roster member as the workers see each other.
type procSpec struct {
	Node string `json:"node"`
	Addr string `json:"addr"`
}

// statsMsg is the body of a statistics frame: the coordinator's pinned
// statistics snapshot, and the id the jobs that plan on it name. A
// coordinator sends it on a control connection once, ahead of the first job
// frame that names it, and again only when the snapshot changes (a graph
// swap).
type statsMsg struct {
	ID    uint64                 `json:"id"`
	Stats *stats.GraphStatistics `json:"stats"`
}

// jobSpec ships one planned query to a worker. The worker plans the
// canonical query text against the coordinator's statistics, once per
// snapshot and query: the planner is deterministic, so every process builds
// the identical plan, and the expected fingerprint, checked on every job,
// turns any drift (version skew, divergent stats) into a hard error instead
// of a wrong answer.
type jobSpec struct {
	JobID   uint64 `json:"jobId"`
	Attempt int    `json:"attempt"`
	Query   string `json:"query"`
	// Params is the wire.AppendParams encoding of the parameter bindings —
	// the same bytes the session's result-cache key uses.
	Params []byte `json:"params,omitempty"`
	// Snapshot names the statistics the worker plans on: the id of the last
	// statsMsg the job's control connection delivered before it. Workers never
	// plan on locally collected numbers.
	Snapshot uint64 `json:"snapshot"`
	// Workers is the logical partition count P (the session's worker
	// count); Owner maps each partition to a roster index.
	Workers int   `json:"workers"`
	Owner   []int `json:"owner"`
	// Procs is the attempt's roster; Self is this worker's index in it.
	Procs []procSpec `json:"procs"`
	Self  int        `json:"self"`
	// Planner configuration, mirrored from the coordinator's core.Config.
	Vertex      int    `json:"vertex"`
	Edge        int    `json:"edge"`
	Fingerprint string `json:"fingerprint"`
	// TimeoutNs bounds the worker-side execution (0 = none).
	TimeoutNs int64 `json:"timeoutNs,omitempty"`
	// TraceID is the coordinator's trace identity for the query, stamped
	// into worker logs and telemetry bundles so every process's records of
	// one distributed job correlate under a single ID.
	TraceID string `json:"traceId,omitempty"`
	// Traced is set when the request asked for a trace: only then does the
	// winning attempt ship its spans.
	Traced bool `json:"traced,omitempty"`
}

// jobDone is the body of a done report, a worker's terminal report for one
// attempt: a sealed frame headed by the attempt (attemptHead).
type jobDone struct {
	Error string
	// PeerLost marks failures caused by a dead peer rather than by the
	// query itself; LostPeers names the roster indices that dropped. The
	// coordinator recovers from these, and only these, by re-running on a
	// remapped roster.
	PeerLost  bool
	LostPeers []int
	// ElapsedNs is the attempt's wall time on the worker; Telemetry whether
	// the worker's telemetry is on.
	ElapsedNs int64
	Telemetry bool

	// Stages is the worker's predicted-vs-actual table, one entry per executed
	// stage: the cost model's SimTime over the stage's owned per-partition
	// charges against the measured wall time and the bytes the transport
	// framed. The per-worker attribution fields stay empty on the wire; the
	// coordinator fills them when it merges the reports.
	Stages  []session.ClusterStage
	Metrics dataflow.MetricsSnapshot
}

func (d *jobDone) layout(c *field.Codec) {
	c.String(&d.Error)
	c.Bool(&d.PeerLost)
	field.Slice(c, &d.LostPeers, 4, func(v *int, c *field.Codec) { c.Int32(v) })
	c.I64(&d.ElapsedNs)
	c.Bool(&d.Telemetry)
	field.Slice(c, &d.Stages, 8+4+4+1+4*8, layoutStage)
	d.Metrics.Layout(c)
}

// layoutStage lays out what a worker reports of one stage; the per-worker
// attribution is the coordinator's to fill (foldStages).
func layoutStage(s *session.ClusterStage, c *field.Codec) {
	c.I64(&s.Stage)
	c.String(&s.Op)
	c.String(&s.Kind)
	c.Bool(&s.Shuffle)
	c.I64(&s.Predicted)
	c.I64(&s.Actual)
	c.I64(&s.ModelBytes)
	c.I64(&s.WireBytes)
}

// encodeJobDone encodes a done report's body into one buffer, sized for it:
// a stage record is 49 bytes and its two strings, the metrics snapshot 136
// bytes and four int64s a worker, the rest under 64 bytes and the error.
func encodeJobDone(d *jobDone) []byte {
	n := 64 + len(d.Error) + 4*len(d.LostPeers) + 136 + 32*len(d.Metrics.CPUElements)
	for i := range d.Stages {
		n += 49 + len(d.Stages[i].Op) + len(d.Stages[i].Kind)
	}
	c := field.Appender(make([]byte, 0, n))
	d.layout(&c)
	return c.Bytes()
}

// decodeJobDone decodes a done report's body, which it must fill.
func decodeJobDone(body []byte) (*jobDone, error) {
	d := new(jobDone)
	c := field.Reader(body)
	d.layout(&c)
	if err := c.End(); err != nil {
		return nil, fmt.Errorf("cluster: done report: %w", err)
	}
	return d, nil
}

// abortMsg tells workers to stop one attempt.
type abortMsg struct {
	JobID   uint64 `json:"jobId"`
	Attempt int    `json:"attempt"`
}

// writeFrame writes one frame whose payload is given whole: the handshake's,
// sent before a connection has a sender.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	var hdr [frameHeader]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(1+len(payload)))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame, guarding against torn and hostile length
// prefixes: a prefix of zero, or beyond maxFrame, fails before any
// allocation, and a short read surfaces as io.ErrUnexpectedEOF rather than
// a misparse of the next frame. The body is read into the receive arena of
// the worker attempt into (DESIGN decision 38), or, when into is nil, into a
// heap allocation of its own that nothing reuses. Either way it is the body's
// alone, so what is decoded from it may keep views of it for as long as its
// owner - the attempt that received it, or the caller - lives. A read into an
// arena ends with into.readEnded: readFrame's own when the body does not
// arrive whole, the frame's reader's once it is done with the frame.
func readFrame(r *bufio.Reader, into *jobRuntime) (byte, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("cluster: torn frame length: %w", err)
		}
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return 0, nil, fmt.Errorf("cluster: zero-length frame")
	}
	if n > maxFrame {
		return 0, nil, fmt.Errorf("cluster: frame length %d exceeds limit %d", n, maxFrame)
	}
	var body []byte
	if into == nil {
		body = make([]byte, n)
	} else {
		body = into.frameBody(int(n))
	}
	if _, err := io.ReadFull(r, body); err != nil {
		if into != nil {
			into.readEnded()
		}
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, fmt.Errorf("cluster: torn frame (want %d bytes): %w", n, err)
	}
	return body[0], body[1:], nil
}

// errFrameTooLarge is the failure of an attempt that would have sent a frame
// over maxFrame, which its receiver refuses: the attempt fails with it, the
// connection stays up and no peer is blamed.
var errFrameTooLarge = errors.New("cluster: frame too large")

// fits fails a frame of size bytes on the socket (wireSize) whose length
// prefix would declare more than readFrame takes.
func fits(size int64) error {
	if n := size - 4; n > maxFrame {
		return fmt.Errorf("%w: %d bytes, the limit is %d", errFrameTooLarge, n, maxFrame)
	}
	return nil
}

// writeJSONFrame marshals a control message into a frame.
func writeJSONFrame(w io.Writer, typ byte, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return writeFrame(w, typ, payload)
}

// The four checksummed frames - data, result, done, telemetry - share one shape,
// head | body | crc32: a fixed header, the body, and the CRC32 of the body
// behind it, because the body is written from the rows as it is sent and its
// checksum is known only once it has been. Each header has one layout
// function naming its fields in wire order, walked by field.Codec in both
// directions; frameWriter takes the checksum on the way out and checkedBody
// holds the body to it on the way in.

// sealedFrames marks the checksummed frame types. A table rather than
// comparisons, because cypherlint's wiresym takes a comparison with a frame
// type for a reader of it: the one reader of a sealed frame is the read loop
// that handles it, and without it the type is reported unread.
var sealedFrames = [256]bool{frameData: true, frameResult: true, frameJobDone: true, frameTelemetry: true}

// sealed reports whether a frame type is a checksummed one.
func sealed(typ byte) bool { return sealedFrames[typ] }

// dataFrame heads a frameData payload; the body is one collective's buckets
// for one peer.
type dataFrame struct {
	JobID   uint64
	Attempt int
	Seq     uint64
	Kind    byte
	From    int
	Stage   int64
}

func (f *dataFrame) layout(c *field.Codec) {
	c.U64(&f.JobID)
	c.Int32(&f.Attempt)
	c.U64(&f.Seq)
	c.U8(&f.Kind)
	c.Int32(&f.From)
	c.I64(&f.Stage)
}

// attemptHead heads what a worker sends the coordinator about one attempt: the
// attempt and the sender's roster index in it. A result frame's body is
// gatherBody over the sender's partitions, a done frame's the encoded
// jobDone, a telemetry frame's the encoded telemetryBundle (job 0: the
// registry snapshot no attempt owns).
type attemptHead struct {
	JobID   uint64
	Attempt int
	From    int
}

func (f *attemptHead) layout(c *field.Codec) {
	c.U64(&f.JobID)
	c.Int32(&f.Attempt)
	c.Int32(&f.From)
}

// head is the header of this worker's result, done and telemetry frames of
// the attempt.
func (s *jobSpec) head() []byte {
	f := attemptHead{JobID: s.JobID, Attempt: s.Attempt, From: s.Self}
	return f.bytes()
}

func (f *attemptHead) bytes() []byte {
	c := field.Appender(nil)
	f.layout(&c)
	return c.Bytes()
}

// openAttempt reads the header of a frame a worker sent about one attempt and
// returns it with the body, once that matches its checksum.
func openAttempt(payload []byte) (attemptHead, []byte, error) {
	var f attemptHead
	c := field.Reader(payload)
	f.layout(&c)
	body, err := checkedBody(&c)
	return f, body, err
}

// checkedBody is the body of the frame whose header c has just read - what is
// left of the payload but the trailer, a view of it - once the header decoded
// whole and the body matches the checksum behind it: a flipped bit in a
// shipped bucket is an error, not a wrong row.
func checkedBody(c *field.Codec) ([]byte, error) {
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("cluster: frame header: %w", err)
	}
	rest := c.Rest()
	if len(rest) < crcTrailer {
		return nil, fmt.Errorf("cluster: frame has no checksum trailer (%d bytes after the header)", len(rest))
	}
	body := rest[:len(rest)-crcTrailer]
	if got, want := crc32.ChecksumIEEE(body), binary.BigEndian.Uint32(rest[len(body):]); got != want {
		return nil, fmt.Errorf("cluster: frame CRC mismatch (%08x != %08x)", got, want)
	}
	return body, nil
}

// segment is a piece of a frame body: bytes - a bucket's head in a data frame,
// a telemetry bundle - and then, if it has one, a bucket written from its
// rows.
type segment struct {
	raw    []byte
	bucket dataflow.Bucket
}

// bodySize is what a frame body of these segments puts on the socket.
func bodySize(body []segment) int {
	n := 0
	for i := range body {
		n += len(body[i].raw) + body[i].bucket.WireSize()
	}
	return n
}

// wireSize is what a checksummed frame of this head and body puts on the
// socket, length prefix and trailer included.
func wireSize(head []byte, body []segment) int64 {
	return int64(frameHeader + len(head) + bodySize(body) + crcTrailer)
}

// outFrame is one queued frame: a control frame's payload is its head; a
// checksummed frame's head is its header, and its body is written behind it,
// then the trailer.
type outFrame struct {
	typ  byte
	head []byte
	body []segment
}

// frameWriter puts frames into a connection's write buffer. A body is written
// a piece at a time - a bucket's count, one row - each appended where it is
// sent from, so a bucket is never built: it goes from the rows to the buffer,
// and the buffer to the socket when it fills. It is the dataflow.BucketWriter
// buckets encode into. The checksum is taken over exactly the bytes written,
// but a run of the buffer at a time rather than a row at a time: over a
// 50-byte row crc32 runs its byte-table loop, which cost more than the row
// (40 % of the wire kernel), and over a run of the buffer its vector one.
type frameWriter struct {
	bw  *bufio.Writer
	crc uint32 // of the body before run
	run []byte // the body's bytes in the buffer not yet in crc, where they lie
	n   int    // bytes of the body written so far
}

func newFrameWriter(w io.Writer) *frameWriter {
	return &frameWriter{bw: bufio.NewWriterSize(w, 64<<10)}
}

// Buffer is room for n bytes where they will be sent from: the buffer's free
// space, flushed to the socket first if it has less - or, for a piece longer
// than the whole buffer, scratch of that piece's size, which Write hands to
// the socket directly.
func (fw *frameWriter) Buffer(n int) []byte {
	if fw.bw.Available() < n {
		fw.sum()
		fw.bw.Flush() // a failure stays in bw, and Write returns it
	}
	if fw.bw.Available() >= n {
		return fw.bw.AvailableBuffer()
	}
	return make([]byte, 0, n)
}

// Write adds a piece to the body. A piece appended to the buffer's free space
// joins the run the checksum has yet to take; any other is taken at once.
func (fw *frameWriter) Write(piece []byte) error {
	fw.n += len(piece)
	if free := fw.bw.AvailableBuffer(); len(piece) > 0 && cap(free) > 0 && &piece[0] == &free[:1][0] {
		if fw.run == nil {
			fw.run = piece
		} else {
			fw.run = fw.run[:len(fw.run)+len(piece)] // the run ends where free space begins
		}
	} else {
		fw.sum()
		fw.crc = crc32.Update(fw.crc, crc32.IEEETable, piece)
	}
	_, err := fw.bw.Write(piece)
	return err
}

// sum brings the checksum up to the last byte written: before the buffer is
// flushed and its bytes overwritten, and at the end of the body.
func (fw *frameWriter) sum() {
	fw.crc = crc32.Update(fw.crc, crc32.IEEETable, fw.run)
	fw.run = nil
}

// frame writes f: length and type, head, and for a checksummed frame its body
// and the CRC32 of what was written. A bucket that writes other than the
// length it declared would make the frame's length prefix a lie, and is an
// error.
func (fw *frameWriter) frame(f *outFrame) error {
	size := 1 + len(f.head)
	if sealed(f.typ) {
		size += bodySize(f.body) + crcTrailer
	}
	hdr := binary.BigEndian.AppendUint32(fw.Buffer(frameHeader), uint32(size))
	if _, err := fw.bw.Write(append(hdr, f.typ)); err != nil {
		return err
	}
	if _, err := fw.bw.Write(f.head); err != nil || !sealed(f.typ) {
		return err
	}
	fw.crc, fw.run, fw.n = 0, nil, 0
	for i := range f.body {
		seg := &f.body[i]
		if len(seg.raw) > 0 {
			if err := fw.Write(seg.raw); err != nil {
				return err
			}
		}
		if err := seg.bucket.Encode(fw); err != nil {
			return err
		}
	}
	if want := size - 1 - len(f.head) - crcTrailer; fw.n != want {
		return fmt.Errorf("cluster: a frame body declared %d bytes and wrote %d", want, fw.n)
	}
	fw.sum()
	_, err := fw.bw.Write(binary.BigEndian.AppendUint32(fw.Buffer(crcTrailer), fw.crc))
	return err
}

// sender serializes and coalesces writes on one connection: frames are
// enqueued from any goroutine, a single writer goroutine drains the queue
// into the connection's write buffer and flushes only when the queue runs dry
// — a burst of small frames (one shuffle's per-peer buckets, heartbeats
// riding alongside results) coalesces into few syscalls without any timer.
//
// A frame's body may be written from rows its sender will rewrite, so a frame
// has a place in the sender's order (send returns it) and wait(seq) returns
// once the writer has written frame seq into the buffer - after which nothing
// reads its rows - or has stopped without writing it: the connection failed,
// and every frame still queued was dropped. A count of frames written, not a
// channel per frame.
type sender struct {
	conn net.Conn

	mu      sync.Mutex
	more    *sync.Cond // the writer's: a frame was queued, or the sender closed
	written *sync.Cond // waiters': a frame was written, or the writer stopped
	queue   []outFrame
	queued  uint64 // frames accepted; the last one's seq
	wrote   uint64 // the last frame the writer has written into the buffer
	stopped bool   // the writer has returned
	closed  bool
	err     error

	done chan struct{}
}

func newSender(conn net.Conn) *sender {
	s := &sender{conn: conn, done: make(chan struct{})}
	s.more = sync.NewCond(&s.mu)
	s.written = sync.NewCond(&s.mu)
	go s.run()
	return s
}

func (s *sender) run() {
	defer s.stop()
	fw := newFrameWriter(s.conn)
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.more.Wait()
		}
		batch := s.queue
		s.queue = nil
		closed := s.closed
		s.mu.Unlock()
		for i := range batch {
			if err := fw.frame(&batch[i]); err != nil {
				s.fail(err)
				return
			}
			if !s.advance() {
				return
			}
		}
		// Queue drained: flush the coalesced batch before sleeping.
		if err := fw.bw.Flush(); err != nil {
			s.fail(err)
			return
		}
		if closed {
			s.conn.Close()
			return
		}
	}
}

// advance records that the writer has written its next frame, and reports
// whether it is to go on: an abort stops it between two frames, and the
// frames left in its batch are abandoned.
func (s *sender) advance() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wrote++
	s.written.Broadcast()
	return s.err == nil
}

// stop marks the writer gone: every frame it did not write is released.
func (s *sender) stop() {
	s.mu.Lock()
	s.stopped = true
	if s.err == nil {
		s.err = net.ErrClosed
	}
	s.written.Broadcast()
	s.mu.Unlock()
	close(s.done)
}

// fail records the connection's first error, drops the queued frames and
// closes the connection, which ends a write in flight: the writer stops, and
// with it every wait for a frame it did not write.
func (s *sender) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.queue = nil
	s.closed = true
	s.more.Broadcast()
	s.mu.Unlock()
	s.conn.Close()
}

// send enqueues one frame and returns its place in the sender's order. A
// body's buckets are the sender's to read until wait(seq) returns. It returns
// the connection's sticky error, if any; enqueueing after close is a no-op
// with that error returned.
func (s *sender) send(typ byte, head []byte, body []segment) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.err != nil {
		err := s.err
		if err == nil {
			err = net.ErrClosed
		}
		return 0, err
	}
	s.queue = append(s.queue, outFrame{typ: typ, head: head, body: body})
	s.queued++
	s.more.Signal()
	return s.queued, nil
}

// wait blocks until frame seq has been written into the connection's buffer
// (nil) or never will be: the writer has stopped (the connection's error).
func (s *sender) wait(seq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.wrote < seq && !s.stopped {
		s.written.Wait()
	}
	if s.wrote >= seq {
		return nil
	}
	return s.err
}

// sendJSON marshals and enqueues a control frame.
func (s *sender) sendJSON(typ byte, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = s.send(typ, payload, nil)
	return err
}

// close drains pending frames, flushes, and closes the connection.
func (s *sender) close() {
	s.mu.Lock()
	s.closed = true
	s.more.Broadcast()
	s.mu.Unlock()
	<-s.done
}

// abort closes the connection immediately, discarding queued frames.
func (s *sender) abort() {
	s.fail(net.ErrClosed)
	<-s.done
}
