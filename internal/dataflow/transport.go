package dataflow

import (
	"encoding/binary"
	"fmt"
)

// Transport connects one process's share of a distributed dataflow job to
// its peers. The execution model is SPMD: every process runs the identical
// deterministic operator program over a fixed logical partition count P
// (the Env's worker count), owns a subset of the partitions — non-owned
// partitions are empty slices, so every transformation works unchanged —
// and meets the others only at exchange points, where the transport moves
// buckets between processes. Because P and the per-partition contents and
// order are fixed by the program, results are bit-identical for any
// ownership assignment, including the remapped one a recovery attempt runs
// with.
//
// All methods are called sequentially from the job's driving goroutine
// (runStage parallelism is confined to a stage's interior), so transports
// may keep an internal sequence counter to pair collective calls across
// processes. The stage argument is the current stage number, used for
// per-stage wire-byte attribution only.
//
// What a transport is handed is not bytes: a Bucket is written, when the
// transport asks, from rows and routes the engine rewrites as soon as the call
// returns (a route is the lane's, decision 32). So Exchange and AllGather
// return only once every bucket they were handed has been written - or never
// will be, its connection gone - and keep none of them.
type Transport interface {
	// Owns reports whether this process owns logical partition p.
	Owns(p int) bool

	// Exchange performs the all-to-all move of one shuffle: outgoing[p][q] is
	// the bucket owned partition p owes partition q of another process
	// (outgoing[p] is nil for non-owned p, outgoing[p][q] the zero Bucket for
	// owned q). It returns incoming[q][p] — the encoded bucket from remote
	// partition p to owned partition q — with entries for non-owned q and
	// locally-owned p left nil (the caller has those rows in memory). The
	// incoming buckets are the caller's, for good: decoded elements are views
	// of them, so a transport must not reuse a receive buffer. Errors (peer
	// loss, abort, corrupt frames) must be returned, never hung on.
	Exchange(stage int64, outgoing [][]Bucket) (incoming [][][]byte, err error)

	// AllGather replicates one bucket per owned partition to every process:
	// blobs[p] is set for owned p; the result holds, for every partition of
	// another process, the bytes its owner's bucket wrote, and nil for the
	// owned ones.
	AllGather(stage int64, blobs []Bucket) ([][]byte, error)
}

// SetTransport installs (or, with nil, removes) the job's transport, and with
// it who owns which partition. Must only be called between jobs; a transport's
// Owns is asked here, once per partition. Without a transport (the default)
// the process owns every partition and is its own cluster: the engine runs the
// same exchange, gather and convergence checks, and the two statements that
// hand buckets to a transport (Exchange in exchange, AllGather in allGather)
// have nobody to hand them to.
func (e *Env) SetTransport(t Transport) {
	e.transport, e.owned, e.foreign = t, nil, 0
	if t == nil {
		return
	}
	e.owned = make([]bool, e.cfg.Workers)
	for p := range e.owned {
		if e.owned[p] = t.Owns(p); !e.owned[p] {
			e.foreign++
		}
	}
}

// Transport returns the installed transport, or nil.
func (e *Env) Transport() Transport { return e.transport }

// owns reports whether this process owns logical partition p: the one
// question the engine asks about a deployment. Partitions of other processes
// are empty here, charge nothing here and are written by their owners.
func (e *Env) owns(p int) bool { return e.owned == nil || e.owned[p] }

// ownsAll reports whether the job runs in this process alone, so that what is
// empty here is empty.
func (e *Env) ownsAll() bool { return e.foreign == 0 }

// Wire is the codec of an element type that crosses a remote exchange. *T
// implements it - Embedding, the operator layer's join records and the
// engine's test records do - and the exchange asks elements for it through a
// pointer, which converts to an interface without allocating. A type that
// does not fails the job with a structured error instead of silently
// mis-shuffling.
type Wire[T any] interface {
	// WireSize is the number of bytes AppendWire appends, so that a bucket is
	// allocated once, at its final size.
	WireSize() int
	AppendWire(dst []byte) []byte
	// WireReader returns the function one decode reads its elements back
	// with: it fills *t from the front of b and returns the rest. What t
	// keeps of b it keeps as a view, never written to - the bytes a transport
	// hands over belong to the attempt that received them - and what the
	// elements of a decode share (a chunk source, say) lives in the reader.
	WireReader() func(t *T, b []byte) (rest []byte, err error)
}

// A Bucket is what one partition owes another in an exchange, or one
// partition's share of an all-gather, as a transport takes it: its length on
// the wire and a way to write it, not its bytes. A bucket of rows is a uint32
// count followed by each element's wire form (what DecodeBucket reads); a
// count's is the partition's size. Encode writes it a piece at a time into a
// BucketWriter, straight from the rows it was made of, so nothing
// proportional to a bucket is allocated to send it; until it has, the rows
// and their route must stay as they are (see Transport).
type Bucket struct {
	size int
	src  bucketSource
	p, q int
}

// bucketSource writes the bucket partition p owes partition q.
type bucketSource interface {
	encodeBucket(p, q int, w BucketWriter) error
}

// WireSize is the number of bytes Encode writes.
func (b Bucket) WireSize() int { return b.size }

// Encode writes the bucket into w, a piece at a time, and returns w's first
// error. The zero Bucket writes nothing.
func (b Bucket) Encode(w BucketWriter) error {
	if b.src == nil {
		return nil
	}
	return b.src.encodeBucket(b.p, b.q, w)
}

// A BucketWriter is where a Bucket writes itself, one piece - its count, one
// element - at a time: Buffer(n) returns an empty slice with room for at least
// n bytes, the bucket appends the piece to it and hands it straight back to
// Write. A connection's write buffer implements it with
// bufio.Writer.AvailableBuffer, so a piece is appended where it is sent from.
type BucketWriter interface {
	Buffer(n int) []byte
	Write(piece []byte) error
}

// encodeRows writes the bucket of the n elements of part whose destination is
// q - all of them when dest is nil - each appended where w says.
func encodeRows[T any](w BucketWriter, part []T, n int, dest []uint32, q uint32) error {
	if err := w.Write(binary.BigEndian.AppendUint32(w.Buffer(4), uint32(n))); err != nil {
		return err
	}
	for i := range part {
		if dest != nil && dest[i] != q {
			continue
		}
		e := any(&part[i]).(Wire[T])
		if err := w.Write(e.AppendWire(w.Buffer(e.WireSize()))); err != nil {
			return err
		}
	}
	return nil
}

// Bucket returns partition p of d as a bucket of rows: how a cluster worker
// ships a result partition and a gather replicates one. An element type
// without a codec is an error.
func (d *Dataset[T]) Bucket(p int) (Bucket, error) {
	size := 4
	for i := range d.parts[p] {
		w, ok := any(&d.parts[p][i]).(Wire[T])
		if !ok {
			return Bucket{}, fmt.Errorf("dataflow: element type %T is not wire-encodable for a remote exchange", d.parts[p][i])
		}
		size += w.WireSize()
	}
	return Bucket{size: size, src: d, p: p}, nil
}

func (d *Dataset[T]) encodeBucket(p, _ int, w BucketWriter) error {
	return encodeRows(w, d.parts[p], len(d.parts[p]), nil, 0)
}

// counts is a dataset as GlobalCount all-gathers it: a partition's bucket is
// its size, eight bytes.
type counts[T any] Dataset[T]

func (c *counts[T]) bucket(p int) (Bucket, error) { return Bucket{size: 8, src: c, p: p}, nil }

func (c *counts[T]) encodeBucket(p, _ int, w BucketWriter) error {
	return w.Write(binary.BigEndian.AppendUint64(w.Buffer(8), uint64(len(c.parts[p]))))
}

// BucketCount returns the number of elements of an encoded bucket, which is
// what its receiver allocates before it reads any of them.
func BucketCount(b []byte) (int, error) {
	if len(b) < 4 {
		return 0, fmt.Errorf("dataflow: truncated bucket header (%d bytes)", len(b))
	}
	n := int(binary.BigEndian.Uint32(b))
	if n < 0 || n > len(b)-4 {
		// Every element costs at least one byte on the wire; reject hostile
		// counts before allocating.
		return 0, fmt.Errorf("dataflow: bucket count %d exceeds payload (%d bytes)", n, len(b)-4)
	}
	return n, nil
}

// DecodeBucket reads the encoded bucket b into dst, which has BucketCount(b)
// elements, with one reader: a bucket is one decode.
func DecodeBucket[T any](dst []T, b []byte) error {
	if n, err := BucketCount(b); err != nil {
		return err
	} else if n != len(dst) {
		return fmt.Errorf("dataflow: bucket of %d elements read into %d", n, len(dst))
	}
	b = b[4:]
	if len(dst) > 0 {
		var zero T
		w, ok := any(&zero).(Wire[T])
		if !ok {
			return fmt.Errorf("dataflow: element type %T is not wire-decodable for a remote exchange", zero)
		}
		read := w.WireReader()
		for i := range dst {
			var err error
			if b, err = read(&dst[i], b); err != nil {
				return fmt.Errorf("dataflow: bucket element %d/%d: %w", i, len(dst), err)
			}
		}
	}
	if len(b) != 0 {
		return fmt.Errorf("dataflow: bucket has %d trailing bytes", len(b))
	}
	return nil
}

// foreign is what the owned partitions of one exchange owe the partitions of
// other processes: their rows and routes, written bucket by bucket when the
// transport asks.
type foreign[T any] struct {
	parts  [][]T
	routes []route
}

func (f *foreign[T]) encodeBucket(p, q int, w BucketWriter) error {
	r := f.routes[p]
	return encodeRows(w, f.parts[p], r.to[q].count, r.dest, uint32(q))
}

// foreignBuckets sizes what this process's partitions owe the partitions of
// other processes, straight from the rows and their routes: outgoing[p][q] is
// owned source p's bucket for foreign destination q, as Transport.Exchange
// takes it. A pass over WireSize gives each bucket its length; the buckets are
// cut from one table and written, later, by the transport from the same rows
// and routes. The sizes are counted on the stack up to placeStack partitions.
// An element type without a codec is an error, with the source partition it
// was met in.
func foreignBuckets[T any](env *Env, parts [][]T, routes []route) ([][]Bucket, int, error) {
	w := len(parts)
	src := &foreign[T]{parts: parts, routes: routes}
	outgoing := make([][]Bucket, w)
	table := make([]Bucket, (w-env.foreign)*w)
	var stack [placeStack]int
	size := stack[:]
	if w > placeStack {
		size = make([]int, w)
	}
	for p, part := range parts {
		if !env.owns(p) {
			continue
		}
		var row []Bucket
		row, table = table[:w:w], table[w:]
		outgoing[p] = row
		dest := routes[p].dest
		clear(size)
		for i := range part {
			if q := dest[i]; !env.owns(int(q)) {
				wire, ok := any(&part[i]).(Wire[T])
				if !ok {
					return nil, p, fmt.Errorf("dataflow: element type %T is not wire-encodable for a remote exchange", part[i])
				}
				size[q] += wire.WireSize()
			}
		}
		for q := range row {
			if !env.owns(q) {
				row[q] = Bucket{size: 4 + size[q], src: src, p: p, q: q}
			}
		}
	}
	return outgoing, 0, nil
}

// Concat returns the concatenation of a job's partitions, in partition order,
// as one slice allocated once at the length the counts give: partition p is
// parts[p], copied, where this process owns it (owned[p]; everywhere if owned
// is nil), and elsewhere the encoded bucket blobs[p], decoded in place - its
// rows are views of the blob. It is the gather behind a broadcast and how a
// coordinator, which owns nothing, assembles a result. A bucket that does not
// decode is an error, with its partition.
func Concat[T any](parts [][]T, blobs [][]byte, owned []bool) ([]T, int, error) {
	w := len(owned)
	if owned == nil {
		w = len(parts)
	}
	count := func(p int) (int, error) {
		if owned == nil || owned[p] {
			return len(parts[p]), nil
		}
		return BucketCount(blobs[p])
	}
	total := 0
	for p := 0; p < w; p++ {
		n, err := count(p)
		if err != nil {
			return nil, p, err
		}
		total += n
	}
	all := make([]T, total)
	rest := all
	for p := 0; p < w; p++ {
		n, _ := count(p)
		window := rest[:n]
		rest = rest[n:]
		if owned == nil || owned[p] {
			copy(window, parts[p])
		} else if err := DecodeBucket(window, blobs[p]); err != nil {
			return nil, p, err
		}
	}
	return all, 0, nil
}

// allGather replicates one bucket per owned partition, blob(p), to every
// process of the job and returns the bytes of every partition of another
// process (Transport.AllGather: a collective every process must reach
// together, like an exchange). A process that is its own cluster has nobody to
// tell and gets nil. On failure it returns false with the env failed.
func (e *Env) allGather(blob func(p int) (Bucket, error)) ([][]byte, bool) {
	if e.transport == nil {
		return nil, true
	}
	stage := e.metrics.stageCount()
	blobs := make([]Bucket, len(e.owned))
	for p := range blobs {
		if !e.owned[p] {
			continue
		}
		var err error
		if blobs[p], err = blob(p); err != nil {
			e.fail(&JobError{Stage: stage, Partition: p, Cause: err})
			return nil, false
		}
	}
	all, err := e.transport.AllGather(stage, blobs)
	if err != nil {
		e.fail(&JobError{Stage: stage, Cause: err})
		return nil, false
	}
	return all, true
}

// gather returns every partition of d, of every process, as one slice in
// partition order: what a single process Collects, whoever owns what.
func gather[T any](d *Dataset[T]) ([]T, bool) {
	env := d.env
	blobs, ok := env.allGather(d.Bucket)
	if !ok {
		return nil, false
	}
	all, p, err := Concat(d.parts, blobs, env.owned)
	if err != nil {
		env.fail(&JobError{Stage: env.metrics.stageCount(), Partition: p, Cause: err})
		return nil, false
	}
	return all, true
}

// GlobalCount returns the dataset's element count across every process of the
// job: the owned partitions' Count plus, all-gathered as fixed-width frames,
// everybody else's. Per-partition sizes feed decisions every process must
// agree on, so with a transport it is a collective all processes must reach
// together (like any exchange). On transport failure it returns 0 with the
// env failed, which terminates the convergence loops that call it.
func (d *Dataset[T]) GlobalCount() int64 {
	env := d.env
	all, ok := env.allGather((*counts[T])(d).bucket)
	if !ok {
		return 0
	}
	n := d.Count()
	for p := range all {
		if env.owns(p) {
			continue
		}
		if len(all[p]) != 8 {
			env.fail(&JobError{Stage: env.metrics.stageCount(), Partition: p, Cause: fmt.Errorf("dataflow: bad count frame (%d bytes)", len(all[p]))})
			return 0
		}
		n += int64(binary.BigEndian.Uint64(all[p]))
	}
	return n
}

// CountAll is GlobalCount in a stage of its own, for a count an operator takes
// between two of its inputs rather than a loop between two supersteps. The
// stage is of the shuffle kind: across processes a count is a collective and
// puts bytes on the wire, which a report of the job books to the stage they
// crossed in and takes for a leak in any stage that is not an exchange. It is
// a Broadcast stage by name, which is what a count is - every partition's
// size replicated to every process - and what keeps it from being a kind of
// its own: a stage kind is a telemetry series, and a cluster worker ships
// every series it has with every job it runs.
func (d *Dataset[T]) CountAll() int64 {
	env := d.env
	if env.Failed() {
		return 0
	}
	env.beginStage("Broadcast", true)
	return d.GlobalCount()
}

// GlobalIsEmpty reports whether the dataset is empty across every process.
// Loop-convergence checks (bulk iteration, variable-length expansion) must
// use this rather than IsEmpty: a process owning only drained partitions
// would otherwise leave the loop while its peers continue, and the
// collective exchanges inside would deadlock on the missing participant.
func (d *Dataset[T]) GlobalIsEmpty() bool { return d.GlobalCount() == 0 }
