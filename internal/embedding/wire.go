package embedding

import (
	"encoding/binary"
	"fmt"
)

// AppendWire appends the embedding's wire form — its three byte arrays,
// each uint32-length-prefixed — to dst. The arrays themselves already are
// the paper's compact binary encoding, so shipping an embedding between
// workers is three memcpys and no per-column work; SizeBytes understates
// the frame payload only by the three fixed-width length prefixes.
func (e Embedding) AppendWire(dst []byte) []byte {
	idData, pathData, propData := e.arrays()
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(idData)))
	dst = append(dst, idData...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(pathData)))
	dst = append(dst, pathData...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(propData)))
	return append(dst, propData...)
}

// DecodeWireInto reads one AppendWire encoding from b into the receiver and
// returns the remaining bytes. The decoded row is a copy: an embedding must
// never alias a reusable receive buffer.
func (e *Embedding) DecodeWireInto(b []byte) ([]byte, error) {
	rest, _, err := e.DecodeWireArena(b, nil)
	return rest, err
}

// DecodeWireArena is DecodeWireInto for a receiver that decodes many rows:
// the row's buffer is carved (capacity-clipped, like a Slab's) off the front
// of arena when it fits there and allocated otherwise, and what is left of
// arena is returned. A row needs fewer bytes than its wire form, so an arena
// as long as the frame holds every row of it. idData is validated to a whole
// number of entries so corrupt frames fail here, not as index panics in a
// partition goroutine later.
func (e *Embedding) DecodeWireArena(b, arena []byte) (rest, arenaRest []byte, err error) {
	var arrs [3][]byte
	rest = b
	for i, what := range [3]string{"idData", "pathData", "propData"} {
		if len(rest) < 4 {
			return nil, nil, fmt.Errorf("embedding: truncated %s length", what)
		}
		n := int(binary.BigEndian.Uint32(rest))
		rest = rest[4:]
		if len(rest) < n {
			return nil, nil, fmt.Errorf("embedding: truncated %s payload (want %d, have %d)", what, n, len(rest))
		}
		arrs[i], rest = rest[:n], rest[n:]
	}
	id, path, prop := len(arrs[0]), len(arrs[1]), len(arrs[2])
	if id%entrySize != 0 {
		return nil, nil, fmt.Errorf("embedding: idData length %d not a multiple of the entry size", id)
	}
	if id+path+prop == 0 {
		*e = Embedding{}
		return rest, arena, nil
	}
	need := prefixSize + id + path + prop
	var buf []byte
	if need <= len(arena) {
		buf, arena = arena[:need:need], arena[need:]
	} else {
		buf = make([]byte, need)
	}
	binary.BigEndian.PutUint32(buf, uint32(id))
	binary.BigEndian.PutUint32(buf[4:], uint32(path))
	copy(buf[prefixSize:], arrs[0])
	copy(buf[prefixSize+id:], arrs[1])
	copy(buf[prefixSize+id+path:], arrs[2])
	*e = Embedding{buf: buf}
	return rest, arena, nil
}
