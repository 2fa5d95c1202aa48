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
// encoded buckets between processes. Because P and the per-partition
// contents and order are fixed by the program, results are bit-identical
// for any ownership assignment, including the remapped one a recovery
// attempt runs with.
//
// All methods are called sequentially from the job's driving goroutine
// (runStage parallelism is confined to a stage's interior), so transports
// may keep an internal sequence counter to pair collective calls across
// processes. The stage argument is the current stage number, used for
// per-stage wire-byte attribution only.
type Transport interface {
	// Owns reports whether this process owns logical partition p.
	Owns(p int) bool

	// Exchange performs the all-to-all move of one shuffle: outgoing[p][q]
	// is the encoded bucket from owned partition p to partition q (rows for
	// non-owned p are ignored and may be nil). It returns incoming[q][p] —
	// the encoded bucket from remote partition p to owned partition q — with
	// entries for non-owned q and locally-owned p left nil (the caller has
	// those buckets in memory). The outgoing buckets are the transport's to
	// read until they are sent; the incoming ones are the caller's, for good:
	// decoded elements are views of them, so a transport must not reuse a
	// receive buffer. Errors (peer loss, abort, corrupt frames) must be
	// returned, never hung on.
	Exchange(stage int64, outgoing [][][]byte) (incoming [][][]byte, err error)

	// AllGather replicates one blob per owned partition to every process:
	// blobs[p] is set for owned p, nil otherwise; the result has all P
	// entries filled (locally-owned entries may be returned as passed).
	AllGather(stage int64, blobs [][]byte) ([][]byte, error)
}

// SetTransport installs (or, with nil, removes) the job's shuffle
// transport. Must only be called between jobs. Without a transport (the
// default) every exchange hook reduces to a nil check — the single-process
// engine is byte-for-byte the code that ran before transports existed —
// and with one installed, shuffles, broadcasts and the loop-convergence
// checks become distributed collectives.
func (e *Env) SetTransport(t Transport) { e.transport = t }

// Transport returns the installed transport, or nil.
func (e *Env) Transport() Transport { return e.transport }

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

// EncodeBucket encodes one bucket, a uint32 count followed by each element's
// wire form, into a buffer sized first and written once.
func EncodeBucket[T any](bucket []T) ([]byte, error) {
	size := 4
	for i := range bucket {
		w, ok := any(&bucket[i]).(Wire[T])
		if !ok {
			return nil, fmt.Errorf("dataflow: element type %T is not wire-encodable for a remote exchange", bucket[i])
		}
		size += w.WireSize()
	}
	dst := binary.BigEndian.AppendUint32(make([]byte, 0, size), uint32(len(bucket)))
	for i := range bucket {
		dst = any(&bucket[i]).(Wire[T]).AppendWire(dst)
	}
	return dst, nil
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

// encodeRemote encodes what one owned source partition owes every partition
// this process does not own, straight from the rows and their route: a pass
// over WireSize gives each bucket's size, so it is allocated once and written
// once, and nothing is placed anywhere in between.
func encodeRemote[T any](part []T, r route, owned []bool) ([][]byte, error) {
	size := make([]int, len(owned))
	for i := range part {
		if q := r.dest[i]; !owned[q] {
			w, ok := any(&part[i]).(Wire[T])
			if !ok {
				return nil, fmt.Errorf("dataflow: element type %T is not wire-encodable for a remote exchange", part[i])
			}
			size[q] += w.WireSize()
		}
	}
	row := make([][]byte, len(owned))
	for q := range row {
		if !owned[q] {
			row[q] = binary.BigEndian.AppendUint32(make([]byte, 0, 4+size[q]), uint32(r.to[q].count))
		}
	}
	for i := range part {
		if q := r.dest[i]; !owned[q] {
			row[q] = any(&part[i]).(Wire[T]).AppendWire(row[q])
		}
	}
	return row, nil
}

// remoteExchange is exchange's distributed path. What an owned source owes a
// partition of another process is encoded from its route and handed to the
// transport; remote buckets arrive encoded. The counts - the routes' for
// owned sources, the encoded buckets' for the others - give every owned
// destination partition its length, so it is allocated once, the owned
// sources place their rows into it and the remote ones are decoded into it,
// in source-partition order: the same concatenation as the in-process path,
// which is what makes the result independent of the ownership assignment.
// Charges (network model bytes, governor memory, trace rows) are applied only
// to owned partitions, so per-process metrics for owned partitions match what
// a single process would record for them and the coordinator's merge
// reproduces the single-process totals.
func remoteExchange[T any](d *Dataset[T], routes []route) ([][]T, bool) {
	env, t := d.env, d.env.transport
	w := len(routes)
	stage := env.metrics.stageCount()
	owned := make([]bool, w)
	for p := range owned {
		owned[p] = t.Owns(p)
	}
	outgoing := make([][][]byte, w)
	for p := range routes {
		if !owned[p] {
			continue
		}
		row, err := encodeRemote(d.parts[p], routes[p], owned)
		if err != nil {
			env.fail(&JobError{Stage: stage, Partition: p, Cause: err})
			return nil, false
		}
		outgoing[p] = row
	}
	incoming, err := t.Exchange(stage, outgoing)
	if err != nil {
		env.fail(&JobError{Stage: stage, Cause: err})
		return nil, false
	}
	corrupt := func(q, p int, err error) ([][]T, bool) {
		env.fail(&JobError{Stage: stage, Partition: q, Cause: fmt.Errorf("from partition %d: %w", p, err)})
		return nil, false
	}
	out := make([][]T, w)
	// from(q)[p] is where source p's rows begin in out[q], from(q)[w] its length.
	starts := make([]int, w*(w+1))
	from := func(q int) []int { return starts[q*(w+1) : (q+1)*(w+1)] }
	for q := range out {
		if !owned[q] {
			continue
		}
		at := from(q)
		for p := range routes {
			n := routes[p].to[q].count
			if !owned[p] {
				if n, err = BucketCount(incoming[q][p]); err != nil {
					return corrupt(q, p, err)
				}
			}
			at[p+1] = at[p] + n
		}
		out[q] = make([]T, at[w])
	}
	next := make([]int, w)
	for p, part := range d.parts {
		if !owned[p] {
			continue
		}
		for q := range next {
			if owned[q] {
				next[q] = from(q)[p]
			}
		}
		for i, q := range routes[p].dest {
			if owned[q] {
				out[q][next[q]] = part[i]
				next[q]++
			}
		}
	}
	sz := sizingOf[T]()
	for q, part := range out {
		if !owned[q] {
			continue
		}
		at := from(q)
		for p := range routes {
			if owned[p] {
				continue
			}
			if err := DecodeBucket(part[at[p]:at[p+1]], incoming[q][p]); err != nil {
				return corrupt(q, p, err)
			}
		}
		if env.governor != nil && !env.chargeMem(q, sz.sum(part)) {
			return nil, false
		}
		// What crossed partitions is everything but source q's own share.
		env.chargeNet(q, sz.sum(part[:at[q]])+sz.sum(part[at[q+1]:]))
		env.traceRowsOut(q, int64(len(part)))
	}
	return out, true
}

// allGatherParts replicates every partition of d to every process and
// returns the full collection in partition order — broadcast's distributed
// gather. Returns nil after failing the env on any error.
func allGatherParts[T any](env *Env, d *Dataset[T]) ([]T, bool) {
	t := env.transport
	w := len(d.parts)
	stage := env.metrics.stageCount()
	blobs := make([][]byte, w)
	for p := 0; p < w; p++ {
		if !t.Owns(p) {
			continue
		}
		blob, err := EncodeBucket(d.parts[p])
		if err != nil {
			env.fail(&JobError{Stage: stage, Partition: p, Cause: err})
			return nil, false
		}
		blobs[p] = blob
	}
	all, err := t.AllGather(stage, blobs)
	if err != nil {
		env.fail(&JobError{Stage: stage, Cause: err})
		return nil, false
	}
	// The counts give the collection's length: one array, owned partitions
	// copied and the others decoded into their windows.
	starts := make([]int, w+1)
	for p := 0; p < w; p++ {
		n := len(d.parts[p])
		if !t.Owns(p) {
			if n, err = BucketCount(all[p]); err != nil {
				env.fail(&JobError{Stage: stage, Partition: p, Cause: err})
				return nil, false
			}
		}
		starts[p+1] = starts[p] + n
	}
	out := make([]T, starts[w])
	for p := 0; p < w; p++ {
		window := out[starts[p]:starts[p+1]]
		if t.Owns(p) {
			copy(window, d.parts[p])
		} else if err := DecodeBucket(window, all[p]); err != nil {
			env.fail(&JobError{Stage: stage, Partition: p, Cause: err})
			return nil, false
		}
	}
	return out, true
}

// globalPartCounts returns every logical partition's element count across
// all processes. In-process it is a local scan; with a transport, owned
// counts are all-gathered as fixed-width frames. Used where per-partition
// sizes feed deterministic decisions every process must agree on
// (Rebalance's offset table, the global emptiness checks).
func globalPartCounts[T any](d *Dataset[T]) ([]int64, bool) {
	env := d.env
	counts := make([]int64, len(d.parts))
	t := env.transport
	if t == nil {
		for p, part := range d.parts {
			counts[p] = int64(len(part))
		}
		return counts, true
	}
	stage := env.metrics.stageCount()
	blobs := make([][]byte, len(d.parts))
	for p, part := range d.parts {
		if !t.Owns(p) {
			continue
		}
		blobs[p] = binary.BigEndian.AppendUint64(nil, uint64(len(part)))
	}
	all, err := t.AllGather(stage, blobs)
	if err != nil {
		env.fail(&JobError{Stage: stage, Cause: err})
		return nil, false
	}
	for p := range counts {
		if t.Owns(p) {
			counts[p] = int64(len(d.parts[p]))
			continue
		}
		if len(all[p]) != 8 {
			env.fail(&JobError{Stage: stage, Partition: p, Cause: fmt.Errorf("dataflow: bad count frame (%d bytes)", len(all[p]))})
			return nil, false
		}
		counts[p] = int64(binary.BigEndian.Uint64(all[p]))
	}
	return counts, true
}

// GlobalCount returns the dataset's element count across every process of
// a distributed job. Without a transport it equals Count; with one it is a
// collective all processes must reach together (like any exchange). On
// transport failure it returns 0 with the env failed, which terminates the
// convergence loops that call it.
func (d *Dataset[T]) GlobalCount() int64 {
	if d.env.transport == nil {
		return d.Count()
	}
	counts, ok := globalPartCounts(d)
	if !ok {
		return 0
	}
	var n int64
	for _, c := range counts {
		n += c
	}
	return n
}

// GlobalIsEmpty reports whether the dataset is empty across every process.
// Loop-convergence checks (bulk iteration, variable-length expansion) must
// use this rather than IsEmpty: a process owning only drained partitions
// would otherwise leave the loop while its peers continue, and the
// collective exchanges inside would deadlock on the missing participant.
func (d *Dataset[T]) GlobalIsEmpty() bool {
	if d.env.transport == nil {
		return d.Count() == 0
	}
	return d.GlobalCount() == 0
}
