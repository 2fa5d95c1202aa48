// Fixtures for the wiresym row-codec rule, type-checked under the real
// gradoop/internal/embedding import path (the analyzer is gated to the wire
// layer). A type with any of dataflow.Wire has all of it, and AppendWire's
// field-read order must match the field-write order of the decoding method
// WireReader hands out.
package embedding

import "encoding/binary"

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
