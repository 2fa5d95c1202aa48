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
// A slab lives in a dataflow.Lane, which the process lends to one partition of
// one job at a time and whose holder is the only goroutine that touches it,
// and every stage carves on where the lane's last one stopped, in this job or
// the one before. So a chunk may hold rows of two adjacent stages or jobs, and
// what is left unused is the tail of one open chunk per lane, not of one per
// attempt or job. No byte is handed out twice: a retried attempt, or the next
// job, carves on behind what the last one built and reuses none of it. The slab keeps no list of its chunks: a chunk
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

// extend starts a row of the columns of e that d keeps grown by addID,
// addPath and addProp bytes: it returns the new row with those columns at the
// front of their sections - e's arrays copied whole when d keeps every column
// - and the length words set, plus the row's bytes for the caller to finish,
// the offsets in them at which the added bytes of each section go and where
// pathData starts, which a path's offset counts from. This is one of the three
// places a row pointer is minted (row.go): buf is exactly the 4+n bytes its
// first word says.
func (s *Slab) extend(e Embedding, d Drop, addID, addPath, addProp int) (row Embedding, buf []byte, idAt, pathAt, propAt, pathBase int) {
	idData, pathData, propData := e.arrays()
	id, path, prop := len(idData), len(pathData), len(propData)
	if d != (Drop{}) {
		id, path, prop = d.kept(idData, pathData, propData)
	}
	id, path, prop = id+addID, path+addPath, prop+addProp
	if id+path+prop == 0 {
		return Embedding{}, nil, 0, 0, 0, 0
	}
	buf = s.alloc(headSize + id + path + prop)
	binary.BigEndian.PutUint32(buf, uint32(prefixSize+id+path+prop))
	binary.BigEndian.PutUint32(buf[4:], uint32(id))
	binary.BigEndian.PutUint32(buf[8:], uint32(path))
	pathBase = headSize + id
	if d == (Drop{}) {
		idAt = headSize + copy(buf[headSize:], idData)
		pathAt = pathBase + copy(buf[pathBase:], pathData)
		propAt = pathBase + path + copy(buf[pathBase+path:], propData)
	} else {
		idAt, pathAt = d.writeIDs(buf, headSize, pathBase, pathBase, idData, pathData)
		propAt = d.writeProps(buf, pathBase+path, propData)
	}
	return Embedding{p: &buf[0]}, buf, idAt, pathAt, propAt, pathBase
}

// Row builds a row of plain identifier columns and property values in one
// write - what the leaf operators emit.
func (s *Slab) Row(ids []epgm.ID, props []epgm.PropertyValue) Embedding {
	n := rowSize(ids, props)
	if n == headSize {
		return Embedding{}
	}
	return writeRow(s.alloc(n), ids, props)
}

// RowBuffer holds one row at a time: Row writes a row of plain identifier
// columns and property values over the one it held before. It is for a row
// that is read and dropped before the next one is made - the edge row a walked
// join merges into its output - which then costs no slab bytes. A row it
// returns is valid until the next call: it is never kept or emitted. The
// buffer only grows, so a view of an earlier row still ends inside the
// allocation it was made in.
type RowBuffer struct{ buf []byte }

// Row is Slab.Row written into the buffer.
func (b *RowBuffer) Row(ids []epgm.ID, props []epgm.PropertyValue) Embedding {
	n := rowSize(ids, props)
	if n == headSize {
		return Embedding{}
	}
	if cap(b.buf) < n {
		b.buf = make([]byte, max(n, 2*cap(b.buf)))
	}
	return writeRow(b.buf[:n], ids, props)
}

// rowSize is the bytes of the row of ids and props, length word included.
func rowSize(ids []epgm.ID, props []epgm.PropertyValue) int {
	return headSize + len(ids)*entrySize + encodedSize(props)
}

// writeRow writes the row of ids and props into buf, which is exactly
// rowSize(ids, props) bytes, and returns it. This is one of the three places a
// row pointer is minted (row.go): buf is the 4+n bytes its first word says.
func writeRow(buf []byte, ids []epgm.ID, props []epgm.PropertyValue) Embedding {
	id := len(ids) * entrySize
	binary.BigEndian.PutUint32(buf, uint32(len(buf)-4))
	binary.BigEndian.PutUint32(buf[4:], uint32(id))
	binary.BigEndian.PutUint32(buf[8:], 0)
	for i, v := range ids {
		putEntry(buf[headSize+i*entrySize:], flagID, uint64(v))
	}
	encodeProps(buf, headSize+id, props)
	return Embedding{p: &buf[0]}
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

// AppendPath returns the columns of e that k.Left keeps with the path column
// of an expansion after them and, when bindEnd is set, an identifier column for
// end - the far endpoint a variable-length expansion binds together with its
// path - in the same write. The path and the end are the expansion's right
// row, columns 0 and 1 of k.Right.
func (s *Slab) AppendPath(e Embedding, k Keep, path []epgm.ID, end epgm.ID, bindEnd bool) Embedding {
	withPath, withEnd := !k.Right.dropsID(0), bindEnd && !k.Right.dropsID(1)
	var addID, addPath int
	if withPath {
		addID, addPath = entrySize, 4+8*len(path)
	}
	if withEnd {
		addID += entrySize
	}
	row, buf, idAt, pathAt, _, pathBase := s.extend(e, k.Left, addID, addPath, 0)
	if withPath {
		putEntry(buf[idAt:], flagPath, uint64(pathAt-pathBase))
		idAt += entrySize
		binary.BigEndian.PutUint32(buf[pathAt:], uint32(len(path)))
		for i, id := range path {
			binary.BigEndian.PutUint64(buf[pathAt+4+8*i:], uint64(id))
		}
	}
	if withEnd {
		putEntry(buf[idAt:], flagID, uint64(end))
	}
	return row
}

// PadNull returns the columns of e that k.Left keeps with, in the same write,
// an unbound column for each of the first cols id columns and a NULL value
// for each of the first props property columns of a right row that k.Right
// keeps: a mandatory row no OPTIONAL MATCH extension joined.
func (s *Slab) PadNull(e Embedding, k Keep, cols, props int) Embedding {
	cols, props = k.Right.count(cols, props)
	row, buf, idAt, _, propAt, _ := s.extend(e, k.Left, cols*entrySize, 0, props*epgm.Null.EncodedSize())
	for i := 0; i < cols; i++ {
		putEntry(buf[idAt+i*entrySize:], flagNull, 0)
	}
	dst := buf[:propAt]
	for i := 0; i < props; i++ {
		dst = epgm.Null.Encode(dst)
	}
	return row
}

// Merge writes the row of a join: the columns of l that k.Left keeps, then
// those of r that k.Right keeps, r's path offsets rebased, then both property
// lists as the two keep them.
func (s *Slab) Merge(l, r Embedding, k Keep) Embedding {
	rIDs, rPaths, rProps := r.arrays()
	id, path, prop := k.Right.kept(rIDs, rPaths, rProps)
	row, buf, idAt, pathAt, propAt, pathBase := s.extend(l, k.Left, id, path, prop)
	k.Right.writeIDs(buf, idAt, pathAt, pathBase, rIDs, rPaths)
	k.Right.writeProps(buf, propAt, rProps)
	return row
}
