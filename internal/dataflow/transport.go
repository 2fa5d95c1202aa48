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
// (runParts parallelism is confined to a stage's interior), so transports
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
	// those buckets in memory). Errors (peer loss, abort, corrupt frames)
	// must be returned, never hung on.
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

// WireEncoder is implemented (with a value receiver) by element types that
// can append their wire form; WireDecoder (pointer receiver) by those that
// can read it back. Types crossing a remote exchange must implement both —
// Embedding, the operator layer's join records, and the engine's own
// counters do; a type that does not fails the job with a structured error
// instead of silently mis-shuffling.
type WireEncoder interface {
	AppendWire(dst []byte) []byte
}

// WireDecoder is the decoding half of WireEncoder.
type WireDecoder interface {
	DecodeWireInto(b []byte) ([]byte, error)
}

// WireArenaDecoder is implemented, next to WireDecoder, by element types
// whose decoded form owns byte storage. decodeBucket hands their elements
// one arena as long as the bucket's wire bytes: each carves the bytes it
// keeps off the front, capacity-clipped so that neighbours cannot reach one
// another, and returns the rest (falling back to an allocation of its own
// should the arena run out). A bucket then costs one allocation for all of
// its elements' bytes, and the elements still never alias the receive
// buffer, which the transport reuses.
type WireArenaDecoder interface {
	DecodeWireArena(b, arena []byte) (rest, arenaRest []byte, err error)
}

// encodeBucket encodes one bucket as a uint32 count followed by each
// element's wire form.
func encodeBucket[T any](bucket []T) ([]byte, error) {
	dst := binary.BigEndian.AppendUint32(nil, uint32(len(bucket)))
	for i := range bucket {
		enc, ok := any(bucket[i]).(WireEncoder)
		if !ok {
			return nil, fmt.Errorf("dataflow: element type %T is not wire-encodable for a remote exchange", bucket[i])
		}
		dst = enc.AppendWire(dst)
	}
	return dst, nil
}

// decodeBucket decodes an encodeBucket blob.
func decodeBucket[T any](b []byte) ([]T, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("dataflow: truncated bucket header (%d bytes)", len(b))
	}
	n := int(binary.BigEndian.Uint32(b))
	b = b[4:]
	if n == 0 {
		return nil, nil
	}
	if n < 0 || n > len(b) {
		// Every element costs at least one byte on the wire; reject hostile
		// counts before allocating.
		return nil, fmt.Errorf("dataflow: bucket count %d exceeds payload (%d bytes)", n, len(b))
	}
	out := make([]T, n)
	var arena []byte
	if _, ok := any(&out[0]).(WireArenaDecoder); ok {
		arena = make([]byte, len(b))
	}
	for i := range out {
		var err error
		switch dec := any(&out[i]).(type) {
		case WireArenaDecoder:
			b, arena, err = dec.DecodeWireArena(b, arena)
		case WireDecoder:
			b, err = dec.DecodeWireInto(b)
		default:
			return nil, fmt.Errorf("dataflow: element type %T is not wire-decodable for a remote exchange", out[i])
		}
		if err != nil {
			return nil, fmt.Errorf("dataflow: bucket element %d/%d: %w", i, n, err)
		}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("dataflow: bucket has %d trailing bytes", len(b))
	}
	return out, nil
}

// remoteExchange is exchange's distributed path: owned buckets are
// encoded and handed to the transport, remote buckets arrive encoded, and
// each owned destination partition is assembled in source-partition order —
// the same concatenation order as the in-process path, which is what makes
// the result independent of the ownership assignment. Charges (network
// model bytes, governor memory, trace rows) are applied only to owned
// partitions, so per-process metrics for owned partitions match what a
// single process would record for them and the coordinator's merge
// reproduces the single-process totals.
func remoteExchange[T any](env *Env, buckets [][][]T) ([][]T, bool) {
	t := env.transport
	w := len(buckets)
	stage := env.metrics.stageCount()
	outgoing := make([][][]byte, w)
	for p := 0; p < w; p++ {
		if !t.Owns(p) {
			continue
		}
		if buckets[p] == nil {
			// The partition goroutine aborted before filling its buckets; the
			// env already carries the reason.
			return nil, false
		}
		row := make([][]byte, w)
		for q := 0; q < w; q++ {
			if t.Owns(q) {
				continue // stays in this process; assembled from memory below
			}
			blob, err := encodeBucket(buckets[p][q])
			if err != nil {
				env.fail(&JobError{Stage: stage, Partition: p, Cause: err})
				return nil, false
			}
			row[q] = blob
		}
		outgoing[p] = row
	}
	incoming, err := t.Exchange(stage, outgoing)
	if err != nil {
		env.fail(&JobError{Stage: stage, Cause: err})
		return nil, false
	}
	out := make([][]T, w)
	sz := sizingOf[T]()
	for q := 0; q < w; q++ {
		if !t.Owns(q) {
			continue
		}
		parts := make([][]T, w)
		var n int
		var bytes int64
		for p := 0; p < w; p++ {
			var bucket []T
			if t.Owns(p) {
				bucket = buckets[p][q]
			} else {
				bucket, err = decodeBucket[T](incoming[q][p])
				if err != nil {
					env.fail(&JobError{Stage: stage, Partition: q, Cause: err})
					return nil, false
				}
			}
			if p != q {
				bytes += sz.sum(bucket)
			}
			parts[p] = bucket
			n += len(bucket)
		}
		part := make([]T, 0, n)
		for p := 0; p < w; p++ {
			part = append(part, parts[p]...)
		}
		if env.governor != nil && !env.chargeMem(q, sz.sum(part)) {
			return nil, false
		}
		out[q] = part
		env.chargeNet(q, bytes)
		env.traceRowsOut(q, int64(n))
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
		blob, err := encodeBucket(d.parts[p])
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
	var out []T
	for p := 0; p < w; p++ {
		if t.Owns(p) {
			out = append(out, d.parts[p]...)
			continue
		}
		bucket, err := decodeBucket[T](all[p])
		if err != nil {
			env.fail(&JobError{Stage: stage, Partition: p, Cause: err})
			return nil, false
		}
		out = append(out, bucket...)
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
