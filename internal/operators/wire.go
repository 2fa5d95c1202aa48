package operators

import (
	"encoding/binary"
	"fmt"

	"gradoop/internal/dataflow"
	"gradoop/internal/embedding"
	"gradoop/internal/epgm"
)

// The operator layer's two internal join-record types cross shuffles inside
// variable-length expansion, so in a distributed job they cross processes:
// both implement dataflow.Wire, the codec the remote exchange resolves once
// per element type. A codec missing a method does not compile; one whose two
// directions disagree on field order fails TestBucketRoundTrip.
var (
	_ dataflow.Wire[embedding.Embedding] = (*embedding.Embedding)(nil)
	_ dataflow.Wire[edgeTriple]          = (*edgeTriple)(nil)
	_ dataflow.Wire[pathState]           = (*pathState)(nil)
)

func (edgeTriple) WireSize() int { return 24 }

func (t edgeTriple) AppendWire(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(t.S))
	dst = binary.BigEndian.AppendUint64(dst, uint64(t.E))
	return binary.BigEndian.AppendUint64(dst, uint64(t.T))
}

func (edgeTriple) WireReader() func(*edgeTriple, []byte) ([]byte, error) {
	return (*edgeTriple).decodeWire
}

func (t *edgeTriple) decodeWire(b []byte) ([]byte, error) {
	if len(b) < 24 {
		return nil, fmt.Errorf("operators: truncated edge triple (%d bytes)", len(b))
	}
	t.S = epgm.ID(binary.BigEndian.Uint64(b))
	t.E = epgm.ID(binary.BigEndian.Uint64(b[8:]))
	t.T = epgm.ID(binary.BigEndian.Uint64(b[16:]))
	return b[24:], nil
}

func (s pathState) WireSize() int { return s.base.WireSize() + 4 + 8*len(s.via) + 8 }

func (s pathState) AppendWire(dst []byte) []byte {
	dst = s.base.AppendWire(dst)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(s.via)))
	for _, id := range s.via {
		dst = binary.BigEndian.AppendUint64(dst, uint64(id))
	}
	return binary.BigEndian.AppendUint64(dst, uint64(s.end))
}

// WireReader returns a reader that owns the slab its via lists are carved
// from, capacity-clipped like the ones expansion builds: one bucket, one
// chunk source, whatever the number of rows. A bucket off the socket is
// decoded between stages, by the job's driving goroutine, which holds no
// partition's lane; this is the one slab of the package that is not a lane's.
func (pathState) WireReader() func(*pathState, []byte) ([]byte, error) {
	slab := new(embedding.Slab)
	return func(s *pathState, b []byte) ([]byte, error) { return s.decodeWire(b, slab) }
}

// decodeWire reads one path state; the base row is a view of b.
func (s *pathState) decodeWire(b []byte, slab *embedding.Slab) ([]byte, error) {
	rest, err := s.base.DecodeWireInto(b)
	if err != nil {
		return nil, fmt.Errorf("operators: path state base: %w", err)
	}
	if len(rest) < 4 {
		return nil, fmt.Errorf("operators: truncated path state via count")
	}
	n := uint64(binary.BigEndian.Uint32(rest))
	rest = rest[4:]
	if uint64(len(rest)) < 8*n+8 {
		return nil, fmt.Errorf("operators: truncated path state (want %d ids, have %d bytes)", n+1, len(rest))
	}
	s.via = nil
	if n > 0 {
		s.via = slab.IDs(int(n))
		for i := range s.via {
			s.via[i] = epgm.ID(binary.BigEndian.Uint64(rest))
			rest = rest[8:]
		}
	}
	s.end = epgm.ID(binary.BigEndian.Uint64(rest))
	return rest[8:], nil
}
