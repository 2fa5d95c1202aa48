package embedding

import (
	"encoding/binary"

	"gradoop/internal/epgm"
)

// Slab chunk sizes in bytes. A slab starts small, because most partitions of
// a selective query build a handful of rows, and doubles up to a size at
// which one chunk per few hundred rows makes the allocator's share
// negligible while a chunk kept alive by a single surviving row stays cheap.
const (
	minChunk = 1 << 10
	maxChunk = 64 << 10
)

// chunks carves runs of T off the front of a chunk and allocates a new chunk
// when the current one runs out. Chunks are never written again or handed
// out twice, so a run is zeroed, and every run is clipped to its own length
// (cap == len): an append to one reallocates instead of writing into its
// neighbour.
type chunks[T any] struct {
	free []T // what is left of the current chunk
	next int // size of the chunk to allocate next
	// made counts the elements of every chunk allocated, left those of the
	// tails abandoned for a run that did not fit: made - left - len(free) is
	// what was carved (Slab.Usage).
	made, left int
}

// alloc returns n zeroed elements with cap == len, from chunks that double
// from lo to hi elements. A run of more than a quarter of the largest chunk
// is an allocation of its own and counts for nothing here.
func (c *chunks[T]) alloc(n, lo, hi int) []T {
	if n > hi/4 {
		return make([]T, n)
	}
	if n > len(c.free) {
		size := max(c.next, lo)
		for size < 4*n {
			size *= 2
		}
		c.left += len(c.free)
		c.made += size
		c.free = make([]T, size)
		c.next = min(2*size, hi)
	}
	run := c.free[:n:n]
	c.free = c.free[n:]
	return run
}

// A Slab hands out the bytes of the rows one partition builds, and the
// identifier lists that go with them, so that a row costs a pointer bump, not
// a trip to the allocator.
//
// A row is immutable once built, and every view of it ends where it ends,
// so an append to one reallocates instead of writing into the row's
// neighbour in the chunk.
//
// A slab belongs to one partition of one job: it lives in the partition's
// dataflow.Lane, whose holder is the only goroutine that touches it, and every
// stage of the job carves on where the partition's last one stopped. So a
// chunk may hold rows of two adjacent stages, and what a job leaves unused is
// the tail of one open chunk per partition, not of one per attempt. No byte is
// handed out twice: a retried attempt carves on behind what the killed one
// built and reuses none of it. The slab keeps no list of its chunks: a chunk
// lives exactly as long as some row carved from it is reachable, which also
// means a consumer that keeps one row in a hundred keeps the whole chunk - and
// that a row which outlives its stage may keep a neighbour stage's rows with
// it, one chunk per partition per stage boundary at most.
//
// The row-building methods accept a nil *Slab and then allocate each row on
// its own; that is what the value-semantic methods on Embedding do.
type Slab struct {
	rows chunks[byte]
	ids  chunks[epgm.ID]
}

// Usage reports, in bytes, the chunks the slab has allocated and what it has
// carved from them; the difference is the tails it abandoned and the rest of
// its open chunks.
func (s *Slab) Usage() (made, carved int) {
	made = s.rows.made + 8*s.ids.made
	return made, made - s.rows.left - len(s.rows.free) - 8*(s.ids.left+len(s.ids.free))
}

// alloc returns n zeroed bytes with cap == len.
func (s *Slab) alloc(n int) []byte {
	if s == nil {
		return make([]byte, n)
	}
	return s.rows.alloc(n, minChunk, maxChunk)
}

// IDs returns a zeroed list of n identifiers with cap == len - the via list
// of a path state, written once when the state is built.
func (s *Slab) IDs(n int) []epgm.ID {
	return s.ids.alloc(n, minChunk/8, maxChunk/8)
}

func putEntry(dst []byte, flag byte, payload uint64) {
	dst[0] = flag
	binary.BigEndian.PutUint64(dst[1:entrySize], payload)
}

// extend starts a row that holds e's three arrays grown by addID, addPath
// and addProp bytes: it returns the new row with e's arrays copied to the
// front of their sections and the length words set, plus the row's bytes for
// the caller to finish and the offsets in them at which the added bytes of
// each section go. This is one of the two places a row pointer is minted
// (row.go): buf is exactly the 4+n bytes its first word says.
func (s *Slab) extend(e Embedding, addID, addPath, addProp int) (row Embedding, buf []byte, idAt, pathAt, propAt int) {
	idData, pathData, propData := e.arrays()
	id, path, prop := len(idData)+addID, len(pathData)+addPath, len(propData)+addProp
	if id+path+prop == 0 {
		return Embedding{}, nil, 0, 0, 0
	}
	buf = s.alloc(headSize + id + path + prop)
	binary.BigEndian.PutUint32(buf, uint32(prefixSize+id+path+prop))
	binary.BigEndian.PutUint32(buf[4:], uint32(id))
	binary.BigEndian.PutUint32(buf[8:], uint32(path))
	idAt = headSize + copy(buf[headSize:], idData)
	pathAt = headSize + id + copy(buf[headSize+id:], pathData)
	propAt = headSize + id + path + copy(buf[headSize+id+path:], propData)
	return Embedding{p: &buf[0]}, buf, idAt, pathAt, propAt
}

// Row builds a row of plain identifier columns and property values in one
// write - what the leaf operators emit.
func (s *Slab) Row(ids []epgm.ID, props []epgm.PropertyValue) Embedding {
	row, buf, idAt, _, propAt := s.extend(Embedding{}, len(ids)*entrySize, 0, encodedSize(props))
	for i, id := range ids {
		putEntry(buf[idAt+i*entrySize:], flagID, uint64(id))
	}
	encodeProps(buf, propAt, props)
	return row
}

func encodedSize(values []epgm.PropertyValue) int {
	n := 0
	for _, v := range values {
		n += v.EncodedSize()
	}
	return n
}

// encodeProps writes values into buf from offset at on; the room is there.
func encodeProps(buf []byte, at int, values []epgm.PropertyValue) {
	dst := buf[:at]
	for _, v := range values {
		dst = v.Encode(dst)
	}
}

// AppendPath returns e with a path column appended and, when bindEnd is
// set, an identifier column for end after it - the far endpoint a
// variable-length expansion binds together with its path, in the same write.
func (s *Slab) AppendPath(e Embedding, path []epgm.ID, end epgm.ID, bindEnd bool) Embedding {
	_, pathLen := e.lens()
	idBytes := entrySize
	if bindEnd {
		idBytes += entrySize
	}
	row, buf, idAt, pathAt, _ := s.extend(e, idBytes, 4+8*len(path), 0)
	putEntry(buf[idAt:], flagPath, uint64(pathLen))
	if bindEnd {
		putEntry(buf[idAt+entrySize:], flagID, uint64(end))
	}
	binary.BigEndian.PutUint32(buf[pathAt:], uint32(len(path)))
	for i, id := range path {
		binary.BigEndian.PutUint64(buf[pathAt+4+8*i:], uint64(id))
	}
	return row
}

// PadNull returns e with cols unbound columns and props NULL property values
// appended, in one write: a mandatory row no OPTIONAL MATCH extension joined.
func (s *Slab) PadNull(e Embedding, cols, props int) Embedding {
	row, buf, idAt, _, propAt := s.extend(e, cols*entrySize, 0, props*epgm.Null.EncodedSize())
	for i := 0; i < cols; i++ {
		putEntry(buf[idAt+i*entrySize:], flagNull, 0)
	}
	dst := buf[:propAt]
	for i := 0; i < props; i++ {
		dst = epgm.Null.Encode(dst)
	}
	return row
}

// Merge is Embedding.Merge: l, then r's columns other than dropColumns,
// r's path offsets rebased, then both property lists.
func (s *Slab) Merge(l, r Embedding, dropColumns []int) Embedding {
	rIDs, rPaths, rProps := r.arrays()
	_, pathBase := l.lens()
	row, buf, idAt, pathAt, propAt := s.extend(l, len(rIDs)-len(dropColumns)*entrySize, len(rPaths), len(rProps))
	copy(buf[pathAt:], rPaths)
	copy(buf[propAt:], rProps)
	di := 0
	for c := 0; c*entrySize < len(rIDs); c++ {
		if di < len(dropColumns) && dropColumns[di] == c {
			di++
			continue
		}
		ent := rIDs[c*entrySize : (c+1)*entrySize]
		payload := binary.BigEndian.Uint64(ent[1:])
		if ent[0] == flagPath {
			payload += uint64(pathBase)
		}
		putEntry(buf[idAt:], ent[0], payload)
		idAt += entrySize
	}
	return row
}
