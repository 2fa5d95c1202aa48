package operators

import (
	"encoding/binary"
	"fmt"

	"gradoop/internal/epgm"
)

// The operator layer's two internal join-record types cross shuffles inside
// variable-length expansion, so in a distributed job they cross processes:
// both implement the dataflow wire-codec interfaces (value-receiver encode,
// pointer-receiver decode) the remote exchange resolves per element type.

// AppendWire implements dataflow.WireEncoder.
func (t edgeTriple) AppendWire(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(t.S))
	dst = binary.BigEndian.AppendUint64(dst, uint64(t.E))
	return binary.BigEndian.AppendUint64(dst, uint64(t.T))
}

// DecodeWireInto implements dataflow.WireDecoder.
func (t *edgeTriple) DecodeWireInto(b []byte) ([]byte, error) {
	if len(b) < 24 {
		return nil, fmt.Errorf("operators: truncated edge triple (%d bytes)", len(b))
	}
	t.S = epgm.ID(binary.BigEndian.Uint64(b))
	t.E = epgm.ID(binary.BigEndian.Uint64(b[8:]))
	t.T = epgm.ID(binary.BigEndian.Uint64(b[16:]))
	return b[24:], nil
}

// AppendWire implements dataflow.WireEncoder.
func (s pathState) AppendWire(dst []byte) []byte {
	dst = s.base.AppendWire(dst)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(s.via)))
	for _, id := range s.via {
		dst = binary.BigEndian.AppendUint64(dst, uint64(id))
	}
	return binary.BigEndian.AppendUint64(dst, uint64(s.end))
}

// DecodeWireInto implements dataflow.WireDecoder.
func (s *pathState) DecodeWireInto(b []byte) ([]byte, error) {
	rest, _, err := s.DecodeWireArena(b, nil)
	return rest, err
}

// DecodeWireArena implements dataflow.WireArenaDecoder: the base row's
// bytes come out of the bucket's arena.
func (s *pathState) DecodeWireArena(b, arena []byte) (rest, arenaRest []byte, err error) {
	rest, arena, err = s.base.DecodeWireArena(b, arena)
	if err != nil {
		return nil, nil, fmt.Errorf("operators: path state base: %w", err)
	}
	if len(rest) < 4 {
		return nil, nil, fmt.Errorf("operators: truncated path state via count")
	}
	n := int(binary.BigEndian.Uint32(rest))
	rest = rest[4:]
	if len(rest) < 8*n+8 {
		return nil, nil, fmt.Errorf("operators: truncated path state (want %d ids, have %d bytes)", n+1, len(rest))
	}
	s.via = nil
	if n > 0 {
		s.via = make([]epgm.ID, n)
		for i := range s.via {
			s.via[i] = epgm.ID(binary.BigEndian.Uint64(rest))
			rest = rest[8:]
		}
	}
	s.end = epgm.ID(binary.BigEndian.Uint64(rest))
	return rest[8:], arena, nil
}
