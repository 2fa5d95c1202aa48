package embedding

import (
	"encoding/binary"
	"fmt"
)

// The wire form of a row is the row: a uint32 length, then the buffer as it
// sits in memory (prefix | idData | pathData | propData). The empty
// embedding, which has no buffer, is the length 0 alone. Encoding is one
// copy; decoding checks the prefix against the length and takes a view.

// WireSize returns the number of bytes AppendWire appends.
func (e Embedding) WireSize() int { return 4 + len(e.buf) }

// AppendWire appends the embedding's wire form to dst. SizeBytes understates
// it by the two fixed-width headers, 12 bytes a row.
func (e Embedding) AppendWire(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(e.buf)))
	return append(dst, e.buf...)
}

// WireReader implements dataflow.Wire: reading a row back needs no state.
func (Embedding) WireReader() func(*Embedding, []byte) ([]byte, error) {
	return (*Embedding).DecodeWireInto
}

// DecodeWireInto reads one AppendWire encoding from b into the receiver and
// returns the remaining bytes. The row is a view of b, clipped to its own
// length like a Slab's rows, so the caller must own b for as long as the row
// lives and never write to it again: a frame body belongs to the attempt
// that received it. The prefix is checked against the row's length, and
// idData against the entry size, so a corrupt frame fails here and not as an
// index panic in a partition goroutine later.
func (e *Embedding) DecodeWireInto(b []byte) ([]byte, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("embedding: truncated row length (%d bytes)", len(b))
	}
	n := uint64(binary.BigEndian.Uint32(b))
	b = b[4:]
	if n > uint64(len(b)) {
		return nil, fmt.Errorf("embedding: row of %d bytes in %d", n, len(b))
	}
	row, rest := b[:n:n], b[n:]
	if n == 0 {
		*e = Embedding{}
		return rest, nil
	}
	if n < prefixSize {
		return nil, fmt.Errorf("embedding: row of %d bytes is shorter than its prefix", n)
	}
	id, path := uint64(binary.BigEndian.Uint32(row)), uint64(binary.BigEndian.Uint32(row[4:]))
	if id%entrySize != 0 {
		return nil, fmt.Errorf("embedding: idData length %d not a multiple of the entry size", id)
	}
	if id+path > n-prefixSize {
		return nil, fmt.Errorf("embedding: idData %d + pathData %d beyond a row of %d bytes", id, path, n)
	}
	if n == prefixSize {
		row = nil // the empty embedding has no buffer
	}
	*e = Embedding{buf: row}
	return rest, nil
}
