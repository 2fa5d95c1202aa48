package embedding

import (
	"encoding/binary"
	"unsafe"
)

// This file is the module's only use of unsafe. An Embedding is a pointer to
// the first byte of its wire row,
//
//	uint32 n | uint32 idLen | uint32 pathLen | idData | pathData | propData
//
// with n = prefixSize + idLen + pathLen + len(propData), and the views below
// are derived from those three words. They are sound because a pointer is
// minted in three places only, each of which has established that n+4 bytes of
// one allocation sit behind it and that idLen + pathLen fit in them:
// Slab.extend and writeRow, which write the words into a buffer they have just
// sized from them, and DecodeWireInto, after its checks against the frame. A
// row carved from a slab or decoded is never written again, so the words a
// view is derived from are the ones that were checked. A RowBuffer's row is
// written over by the next one, in a buffer that only grows: a view of the old
// row reads the new row's bytes, but still ends inside the allocation, and
// its holder drops it before the next row is made. A row always has a body
// (the empty row is the nil pointer), so the address behind the head is
// inside the allocation too.

// headSize is the width of the three length words.
const headSize = 4 + prefixSize

// head returns the row's length words; e.p must not be nil. Reading the
// lengths through the array, not through a slice of the row, is what keeps
// the accessors below within the inliner's budget (make inline-guard).
func (e Embedding) head() *[headSize]byte { return (*[headSize]byte)(unsafe.Pointer(e.p)) }

// rowBytes returns the wire row at p whole, length word included, clipped to
// its own length; p must not be nil.
func rowBytes(p *byte) []byte {
	return unsafe.Slice(p, 4+int(binary.BigEndian.Uint32((*[4]byte)(unsafe.Pointer(p))[:])))
}

// lens returns the lengths of idData and pathData.
func (e Embedding) lens() (id, path int) {
	if e.p == nil {
		return 0, 0
	}
	h := e.head()
	return int(binary.BigEndian.Uint32(h[4:])), int(binary.BigEndian.Uint32(h[8:]))
}

// idData is behind every column access and reads only its own length.
func (e Embedding) idData() []byte {
	if e.p == nil {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Add(unsafe.Pointer(e.p), headSize)), int(binary.BigEndian.Uint32(e.head()[4:])))
}

// arrays returns the three arrays as views of the row. It reads the words
// itself: with lens and rowBytes inlined into it, it is over the budget.
func (e Embedding) arrays() (idData, pathData, propData []byte) {
	if e.p == nil {
		return nil, nil, nil
	}
	h := e.head()
	id, path := int(binary.BigEndian.Uint32(h[4:])), int(binary.BigEndian.Uint32(h[8:]))
	body := unsafe.Slice((*byte)(unsafe.Add(unsafe.Pointer(e.p), headSize)), int(binary.BigEndian.Uint32(h[:]))-prefixSize)
	return body[:id], body[id : id+path], body[id+path:]
}
