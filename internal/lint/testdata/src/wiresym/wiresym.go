// Fixtures for the wiresym codec-pair rule, type-checked under the real
// gradoop/internal/wire import path (the analyzer is gated to the wire
// layer). Each encoder's field-read order must match its paired decoder's
// field-write order; a dropped field read is the acceptance case from the
// issue — deleting one read from a Decode* must be flagged.
package wire

import "encoding/binary"

type header struct {
	ID    uint64
	Label string
	Count uint32
}

// AppendHeader writes ID, Label, Count.
func AppendHeader(dst []byte, h header) []byte {
	dst = binary.BigEndian.AppendUint64(dst, h.ID)
	dst = append(dst, h.Label...)
	return binary.BigEndian.AppendUint32(dst, h.Count)
}

// ReadHeader reads Count before Label: order drift.
func ReadHeader(b []byte) header { // want `codec asymmetry: ReadHeader reads header fields in order \[ID Count Label\] but AppendHeader writes \[ID Label Count\]`
	var h header
	h.ID = binary.BigEndian.Uint64(b)
	h.Count = binary.BigEndian.Uint32(b[8:])
	h.Label = string(b[12:])
	return h
}

type record struct {
	Key uint64
	Val uint64
	Tag uint32
}

// AppendRecord writes Key, Val, Tag.
func AppendRecord(dst []byte, r record) []byte {
	dst = binary.BigEndian.AppendUint64(dst, r.Key)
	dst = binary.BigEndian.AppendUint64(dst, r.Val)
	return binary.BigEndian.AppendUint32(dst, r.Tag)
}

// ReadRecord forgot Tag — the deleted-field-read acceptance case.
func ReadRecord(b []byte) record { // want `codec asymmetry: ReadRecord reads record fields in order \[Key Val\] but AppendRecord writes \[Key Val Tag\]`
	var r record
	r.Key = binary.BigEndian.Uint64(b)
	r.Val = binary.BigEndian.Uint64(b[8:])
	return r
}

type pair struct {
	A uint32
	B uint32
}

// encodePair / decodePair are symmetric (composite-literal decode form);
// the len() read does not count as serialization.
func encodePair(p *pair, scratch []byte) []byte {
	out := make([]byte, 8, 8+len(scratch))
	binary.BigEndian.PutUint32(out[0:], p.A)
	binary.BigEndian.PutUint32(out[4:], p.B)
	return out
}

func decodePair(b []byte) *pair {
	return &pair{
		A: binary.BigEndian.Uint32(b[0:]),
		B: binary.BigEndian.Uint32(b[4:]),
	}
}

// AppendPoint / ReadPoint are symmetric in assignment form.
type point struct {
	X int32
	Y int32
}

func AppendPoint(dst []byte, pt point) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(pt.X))
	return binary.BigEndian.AppendUint32(dst, uint32(pt.Y))
}

func ReadPoint(b []byte) point {
	var pt point
	pt.X = int32(binary.BigEndian.Uint32(b[0:]))
	pt.Y = int32(binary.BigEndian.Uint32(b[4:]))
	return pt
}

// The methods of dataflow.Wire, the codec of element types that cross a
// remote exchange: AppendWire against the decoding method WireReader returns.

// row is symmetric: a composite literal on the way in.
type row struct {
	buf []byte
}

func (r row) WireSize() int { return 4 + len(r.buf) }

func (r row) AppendWire(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.buf)))
	return append(dst, r.buf...)
}

func (row) WireReader() func(*row, []byte) ([]byte, error) { return (*row).DecodeWireInto }

func (r *row) DecodeWireInto(b []byte) ([]byte, error) {
	n := binary.BigEndian.Uint32(b)
	*r = row{buf: b[4 : 4+n]}
	return b[4+n:], nil
}

// state nests a row, decoded by the row's own codec, and is symmetric.
type state struct {
	base row
	via  []uint64
	end  uint64
}

func (s state) WireSize() int { return s.base.WireSize() + 4 + 8*len(s.via) + 8 }

func (s state) AppendWire(dst []byte) []byte {
	dst = s.base.AppendWire(dst)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(s.via)))
	for _, id := range s.via {
		dst = binary.BigEndian.AppendUint64(dst, id)
	}
	return binary.BigEndian.AppendUint64(dst, s.end)
}

func (state) WireReader() func(*state, []byte) ([]byte, error) {
	return func(s *state, b []byte) ([]byte, error) { return s.decodeWire(b) }
}

func (s *state) decodeWire(b []byte) ([]byte, error) {
	rest, err := s.base.DecodeWireInto(b)
	if err != nil {
		return nil, err
	}
	s.via = make([]uint64, binary.BigEndian.Uint32(rest))
	rest = rest[4:]
	for i := range s.via {
		s.via[i] = binary.BigEndian.Uint64(rest)
		rest = rest[8:]
	}
	s.end = binary.BigEndian.Uint64(rest)
	return rest[8:], nil
}

// drifted reads its end before its via list.
type drifted struct {
	base row
	via  []uint64
	end  uint64
}

func (d drifted) WireSize() int { return d.base.WireSize() + 4 + 8*len(d.via) + 8 }

func (d drifted) AppendWire(dst []byte) []byte {
	dst = d.base.AppendWire(dst)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(d.via)))
	for _, id := range d.via {
		dst = binary.BigEndian.AppendUint64(dst, id)
	}
	return binary.BigEndian.AppendUint64(dst, d.end)
}

func (drifted) WireReader() func(*drifted, []byte) ([]byte, error) { return (*drifted).decodeWire }

func (d *drifted) decodeWire(b []byte) ([]byte, error) { // want `codec asymmetry: drifted.decodeWire reads fields in order \[base end via\] but AppendWire writes \[base via end\]`
	rest, err := d.base.DecodeWireInto(b)
	if err != nil {
		return nil, err
	}
	d.end = binary.BigEndian.Uint64(rest)
	d.via = make([]uint64, binary.BigEndian.Uint32(rest[8:]))
	return rest[12:], nil
}

// half can be written and never read back.
type half struct {
	v uint64
}

func (h half) WireSize() int { return 8 } // want `half has WireSize, AppendWire but not WireReader: a wire codec is all of dataflow.Wire`

func (h half) AppendWire(dst []byte) []byte { return binary.BigEndian.AppendUint64(dst, h.v) }
