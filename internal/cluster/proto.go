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
	// protoVersion 3: the job spec carries no join hint and no reuse switch
	// (nothing set them). 2: a row travels as its in-memory buffer behind one
	// length (embedding.AppendWire), and result frames carry a checksum.
	protoVersion = 3

	// maxFrame bounds a frame's declared length. A torn or hostile length
	// prefix is rejected before any allocation.
	maxFrame = 256 << 20

	// frameHeader is the fixed per-frame overhead: uint32 length + type byte.
	frameHeader = 5
)

// Frame types. Control payloads (hello, job, done, abort) are JSON inside
// the binary framing — they are rare and small; the hot path (data, result)
// is pure binary.
const (
	frameHello   = byte(1)  // connection opener, both roles
	frameWelcome = byte(2)  // handshake accept
	frameReject  = byte(3)  // handshake refusal, then close
	frameJob     = byte(4)  // coordinator -> worker: run this job
	frameJobDone = byte(5)  // worker -> coordinator: job finished (ok or not)
	frameResult  = byte(6)  // worker -> coordinator: one owned partition's rows
	frameAbort   = byte(7)  // coordinator -> worker: stop an attempt
	framePing    = byte(8)  // coordinator -> worker liveness probe
	framePong    = byte(9)  // worker -> coordinator liveness answer
	frameData    = byte(10) // worker <-> worker: one collective's buckets
	// frameTelemetry ships a worker's observability bundle (span set +
	// registry snapshot) for one attempt. It is sent on the control
	// connection immediately before the attempt's frameJobDone, so a done
	// report is the guarantee that the bundle — if the worker ships one —
	// has already arrived.
	frameTelemetry = byte(11)
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

// welcome acknowledges a hello.
type welcome struct {
	Magic   uint32 `json:"magic"`
	Version int    `json:"version"`
	Node    string `json:"node"`
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
		typ, payload, err = readFrame(br)
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

// jobSpec ships one planned query to a worker. The worker re-plans the
// canonical query text against the coordinator's pinned statistics — the
// planner is deterministic, so every process builds the identical plan,
// and the expected fingerprint turns any drift (version skew, divergent
// stats) into a hard error instead of a wrong answer.
type jobSpec struct {
	JobID   uint64 `json:"jobId"`
	Attempt int    `json:"attempt"`
	Query   string `json:"query"`
	// Params is the wire.AppendParams encoding of the parameter bindings —
	// the same bytes the session's result-cache key uses.
	Params []byte `json:"params,omitempty"`
	// Stats is the coordinator's pinned statistics snapshot; workers must
	// plan on it, not on locally collected numbers.
	Stats *stats.GraphStatistics `json:"stats"`
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
}

// jobDone is a worker's terminal report for one attempt.
type jobDone struct {
	JobID   uint64 `json:"jobId"`
	Attempt int    `json:"attempt"`
	Error   string `json:"error,omitempty"`
	// PeerLost marks failures caused by a dead peer rather than by the
	// query itself; LostPeers names the roster indices that dropped. The
	// coordinator recovers from these, and only these, by re-running on a
	// remapped roster.
	PeerLost  bool  `json:"peerLost,omitempty"`
	LostPeers []int `json:"lostPeers,omitempty"`

	// Stages is the worker's predicted-vs-actual table, one entry per executed
	// stage: the cost model's SimTime over the stage's owned per-partition
	// charges against the measured wall time and the bytes the transport
	// framed. The per-worker attribution fields stay empty on the wire; the
	// coordinator fills them when it merges the reports.
	Stages  []session.ClusterStage   `json:"stages,omitempty"`
	Metrics dataflow.MetricsSnapshot `json:"metrics"`
	// Telemetry marks that the worker shipped a telemetry bundle for this
	// attempt (ordered before this report on the same connection). False
	// means the worker runs with telemetry disabled; the coordinator then
	// marks the job's report partial instead of waiting for a bundle that
	// will never come.
	Telemetry bool `json:"telemetry,omitempty"`
}

// abortMsg tells workers to stop one attempt.
type abortMsg struct {
	JobID   uint64 `json:"jobId"`
	Attempt int    `json:"attempt"`
}

// writeFrame writes one length-prefixed frame whose payload is the given
// segments back to back: a data or result frame is its header followed by the
// encoded buckets where they lie, never concatenated.
func writeFrame(w io.Writer, typ byte, payload ...[]byte) error {
	n := 1
	for _, seg := range payload {
		n += len(seg)
	}
	var hdr [frameHeader]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(n))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	for _, seg := range payload {
		if _, err := w.Write(seg); err != nil {
			return err
		}
	}
	return nil
}

// readFrame reads one frame, guarding against torn and hostile length
// prefixes: a prefix of zero, or beyond maxFrame, fails before any
// allocation, and a short read surfaces as io.ErrUnexpectedEOF rather than
// a misparse of the next frame. Every frame gets a body of its own that
// nothing reuses, so what is decoded from it may keep views of it: a frame
// body belongs to the attempt that received it.
func readFrame(r *bufio.Reader) (byte, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return 0, nil, fmt.Errorf("cluster: zero-length frame")
	}
	if n > maxFrame {
		return 0, nil, fmt.Errorf("cluster: frame length %d exceeds limit %d", n, maxFrame)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, fmt.Errorf("cluster: torn frame (want %d bytes): %w", n, err)
	}
	return body[0], body[1:], nil
}

// writeJSONFrame marshals a control message into a frame.
func writeJSONFrame(w io.Writer, typ byte, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return writeFrame(w, typ, payload)
}

// The three checksummed frames - data, result, telemetry - share one shape,
// head | body: a fixed header whose last field is the CRC32 of the body, then
// the body where it was encoded, sent as segments of its own. Each header has
// one layout function naming its fields in wire order, walked by field.Codec in
// both directions; checksum fills the CRC on the way out and checkedBody holds
// the body to it on the way in.

// dataFrame heads a frameData payload; the body is one collective's buckets
// for one peer.
type dataFrame struct {
	JobID   uint64
	Attempt int
	Seq     uint64
	Kind    byte
	From    int
	Stage   int64
	crc     uint32
}

func (f *dataFrame) layout(c *field.Codec) {
	c.U64(&f.JobID)
	c.Int32(&f.Attempt)
	c.U64(&f.Seq)
	c.U8(&f.Kind)
	c.Int32(&f.From)
	c.I64(&f.Stage)
	c.U32(&f.crc)
}

// resultFrame heads a frameResult payload; the body is the partition's rows as
// one dataflow.EncodeBucket.
type resultFrame struct {
	JobID     uint64
	Attempt   int
	Partition int
	crc       uint32
}

func (f *resultFrame) layout(c *field.Codec) {
	c.U64(&f.JobID)
	c.Int32(&f.Attempt)
	c.Int32(&f.Partition)
	c.U32(&f.crc)
}

// checksum is the CRC32 of a frame body, taken segment by segment.
func checksum(body ...[]byte) uint32 {
	var crc uint32
	for _, seg := range body {
		crc = crc32.Update(crc, crc32.IEEETable, seg)
	}
	return crc
}

// checkedBody is the body of the frame whose header c has just read - what is
// left of the payload, a view of it - once the header decoded whole and the
// body matches the checksum the header carried: a flipped bit in a shipped
// bucket is an error, not a wrong row.
func checkedBody(c *field.Codec, want uint32) ([]byte, error) {
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("cluster: frame header: %w", err)
	}
	body := c.Rest()
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("cluster: frame CRC mismatch (%08x != %08x)", got, want)
	}
	return body, nil
}

// sender serializes and coalesces writes on one connection: frames are
// enqueued from any goroutine, a single writer goroutine drains the queue
// through a buffered writer and flushes only when the queue runs dry — a
// burst of small frames (one shuffle's per-peer buckets, heartbeats riding
// alongside results) coalesces into few syscalls without any timer.
type sender struct {
	conn net.Conn

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []outFrame
	closed bool
	err    error

	done chan struct{}
}

type outFrame struct {
	typ     byte
	payload [][]byte
}

func newSender(conn net.Conn) *sender {
	s := &sender{conn: conn, done: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
	go s.run()
	return s
}

func (s *sender) run() {
	defer close(s.done)
	bw := bufio.NewWriterSize(s.conn, 64<<10)
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		batch := s.queue
		s.queue = nil
		closed := s.closed
		s.mu.Unlock()
		for _, f := range batch {
			if err := writeFrame(bw, f.typ, f.payload...); err != nil {
				s.fail(err)
				return
			}
		}
		// Queue drained: flush the coalesced batch before sleeping.
		if err := bw.Flush(); err != nil {
			s.fail(err)
			return
		}
		if closed {
			s.conn.Close()
			return
		}
	}
}

func (s *sender) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.queue = nil
	s.closed = true
	s.mu.Unlock()
	s.conn.Close()
}

// send enqueues one frame, its payload given as segments the sender must be
// left to read until they are written. It returns the connection's sticky
// error, if any; enqueueing after close is a silent no-op with that error
// returned.
func (s *sender) send(typ byte, payload ...[]byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.err != nil {
		err := s.err
		if err == nil {
			err = net.ErrClosed
		}
		return err
	}
	s.queue = append(s.queue, outFrame{typ: typ, payload: payload})
	s.cond.Signal()
	return nil
}

// sendJSON marshals and enqueues a control frame.
func (s *sender) sendJSON(typ byte, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return s.send(typ, payload)
}

// close drains pending frames, flushes, and closes the connection.
func (s *sender) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
	<-s.done
}

// abort closes the connection immediately, discarding queued frames.
func (s *sender) abort() {
	s.fail(net.ErrClosed)
	s.cond.Broadcast()
	<-s.done
}
