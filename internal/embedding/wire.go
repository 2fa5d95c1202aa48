package embedding

import (
	"encoding/binary"
	"fmt"
)

// The wire form of a row is the row: a uint32 length n, then n bytes (prefix
// | idData | pathData | propData), which is also how it sits in memory. The
// empty embedding, which has no row, is the length 0 alone. Encoding is one
// copy; decoding checks the lengths against each other and against the input
// and keeps a pointer.

// WireSize returns the number of bytes AppendWire appends.
func (e Embedding) WireSize() int {
	if e.p == nil {
		return 4
	}
	return 4 + int(binary.BigEndian.Uint32(e.head()[:]))
}

// AppendWire appends the embedding's wire form to dst. SizeBytes understates
// it by the three fixed-width length words, 12 bytes a row.
func (e Embedding) AppendWire(dst []byte) []byte {
	if e.p == nil {
		return append(dst, 0, 0, 0, 0)
	}
	return append(dst, rowBytes(e.p)...)
}

// WireReader implements dataflow.Wire: reading a row back needs no state.
func (Embedding) WireReader() func(*Embedding, []byte) ([]byte, error) {
	return (*Embedding).DecodeWireInto
}

// DecodeWireInto reads one AppendWire encoding from b into the receiver and
// returns the remaining bytes. The row is a view of b - its address is
// inside b - so the caller must own b for as long as the row lives and never
// write to it again: a frame body belongs to the attempt that received it.
// The row's length is checked against b, the prefix against the row's
// length, and idData against the entry size, so a corrupt frame fails here
// and not as an index panic in a partition goroutine later. With those
// checks passed this is the second of the two places a row pointer is
// minted (row.go).
func (e *Embedding) DecodeWireInto(b []byte) ([]byte, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("embedding: truncated row length (%d bytes)", len(b))
	}
	n := uint64(binary.BigEndian.Uint32(b))
	body := b[4:]
	if n > uint64(len(body)) {
		return nil, fmt.Errorf("embedding: row of %d bytes in %d", n, len(body))
	}
	rest := body[n:]
	if n == 0 {
		e.p = nil
		return rest, nil
	}
	if n < prefixSize {
		return nil, fmt.Errorf("embedding: row of %d bytes is shorter than its prefix", n)
	}
	id, path := uint64(binary.BigEndian.Uint32(body)), uint64(binary.BigEndian.Uint32(body[4:]))
	if id%entrySize != 0 {
		return nil, fmt.Errorf("embedding: idData length %d not a multiple of the entry size", id)
	}
	if id+path > n-prefixSize {
		return nil, fmt.Errorf("embedding: idData %d + pathData %d beyond a row of %d bytes", id, path, n)
	}
	if n == prefixSize {
		e.p = nil // the empty embedding has no row
		return rest, nil
	}
	e.p = &b[0] // the row is b[:4+n]
	return rest, nil
}
