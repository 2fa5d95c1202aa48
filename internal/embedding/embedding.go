// Package embedding implements the paper's compact embedding representation
// (§3.3): each (partial) match is a row made of three byte arrays —
// idData[] mapping query elements to graph element identifiers or
// variable-length-path offsets, pathData[] storing the paths themselves, and
// propData[] storing the property values referenced by predicates and
// projections. Embeddings are the elements shuffled between workers, so the
// encoding doubles as the wire format and the engine's byte accounting is
// exact.
//
// A row is one contiguous run of bytes, the same in memory as on the wire:
// its length, a fixed prefix with the lengths of idData and pathData, then
// the three arrays back to back. Id columns are fixed-width, so column access
// is constant time; property access "walks the length information of the
// preceding entries" as in the paper, which here means stepping over each
// preceding value by its encoded size — nothing in front of the wanted value
// is decoded. The operators carve rows from a Slab owned by one partition
// attempt (see Slab); the methods on Embedding are the same routines without
// one, one allocation per row.
package embedding

import (
	"encoding/binary"
	"fmt"

	"gradoop/internal/epgm"
)

// Entry flags in idData (the paper's ID and PATH markers, plus NULL for
// unmatched OPTIONAL MATCH variables).
const (
	flagID   byte = 0
	flagPath byte = 1
	flagNull byte = 2
)

// entrySize is the fixed width of one idData entry: a flag byte plus an
// 8-byte identifier or offset, giving constant-time column access.
const entrySize = 9

// prefixSize is the width of a row's prefix: the idData length and the
// pathData length, each a big-endian uint32. propData takes the rest of the
// row. The prefix is not accounted (SizeBytes is the three arrays, the
// paper's row); it is shipped, and so is the length word in front of it,
// because the row in memory is the wire row (AppendWire).
const prefixSize = 8

// Embedding is one row of a pattern-matching intermediate result: one word,
// the address of its wire row (row.go), so a partition of rows, a shuffle
// destination and a path state carry 8 bytes a row. The zero value is an
// empty embedding ready for appends. Embeddings have value semantics: a row
// is never changed once built, operations that grow one return a new one,
// and every view of a row ends where the row ends, so nothing appended to
// one can reach the bytes of another.
type Embedding struct {
	p *byte // the row's length word; nil when empty
}

func (e Embedding) pathData() []byte {
	_, pathData, _ := e.arrays()
	return pathData
}

func (e Embedding) propData() []byte {
	_, _, propData := e.arrays()
	return propData
}

// entry returns column i's flag and 8-byte payload.
func (e Embedding) entry(i int) (flag byte, payload uint64) {
	ent := e.idData()[i*entrySize : (i+1)*entrySize]
	return ent[0], binary.BigEndian.Uint64(ent[1:])
}

// Columns returns the number of idData entries.
func (e Embedding) Columns() int {
	id, _ := e.lens()
	return id / entrySize
}

// IsPath reports whether column i holds a variable-length path rather than
// a single identifier.
func (e Embedding) IsPath(i int) bool { return e.idData()[i*entrySize] == flagPath }

// IsNullAt reports whether column i holds no binding (an unmatched
// OPTIONAL MATCH variable).
func (e Embedding) IsNullAt(i int) bool { return e.idData()[i*entrySize] == flagNull }

// ID returns the graph element identifier at column i. It panics if the
// column holds a path; callers consult the metadata first.
func (e Embedding) ID(i int) epgm.ID {
	flag, payload := e.entry(i)
	if flag == flagPath {
		panic(fmt.Sprintf("embedding: column %d holds a path, not an id", i))
	}
	return epgm.ID(payload)
}

// path returns the encoded identifiers (8 bytes each) of the path at
// column i.
func (e Embedding) path(i int) []byte {
	flag, p := e.entry(i)
	if flag != flagPath {
		panic(fmt.Sprintf("embedding: column %d holds an id, not a path", i))
	}
	paths := e.pathData()[p:]
	n := int(binary.BigEndian.Uint32(paths))
	return paths[4 : 4+8*n]
}

// Path returns the identifier list of the path at column i: the alternating
// edge and vertex identifiers between the path's endpoints (the paper's
// "via" field). It panics if the column holds a plain id.
func (e Embedding) Path(i int) []epgm.ID {
	enc := e.path(i)
	ids := make([]epgm.ID, len(enc)/8)
	for j := range ids {
		ids[j] = epgm.ID(binary.BigEndian.Uint64(enc[8*j:]))
	}
	return ids
}

// PathLen returns the number of identifiers in the path at column i without
// materializing them.
func (e Embedding) PathLen(i int) int { return len(e.path(i)) / 8 }

// PathID returns the j-th identifier of the path at column i, so that a
// caller can walk a path in place.
func (e Embedding) PathID(i, j int) epgm.ID {
	return epgm.ID(binary.BigEndian.Uint64(e.path(i)[8*j:]))
}

// PropCount returns the number of property values stored in propData.
func (e Embedding) PropCount() int {
	props := e.propData()
	n := 0
	for len(props) > 0 {
		sz, err := epgm.EncodedValueSize(props)
		if err != nil {
			panic("embedding: corrupt propData: " + err.Error())
		}
		props = props[sz:]
		n++
	}
	return n
}

// PropBytes returns the encoded bytes (epgm.PropertyValue.Encode) of the
// property value at property column i, found by stepping over the values in
// front of it. The bytes are a view of the row, read, never write.
func (e Embedding) PropBytes(i int) []byte {
	props := e.propData()
	for j := 0; ; j++ {
		sz, err := epgm.EncodedValueSize(props)
		if err != nil {
			panic(fmt.Sprintf("embedding: property column %d out of range: %v", i, err))
		}
		if j == i {
			return props[:sz]
		}
		props = props[sz:]
	}
}

// AppendPropOffsets appends to dst the offset in propData of every property
// value in turn and then propData's length, in one pass over the values'
// length information, and returns them with the propData they index (a view
// of the row, read, never write): value i is propData[offs[i]:offs[i+1]]. A
// reader of several values of one row asks once instead of stepping over the
// first i values for each.
func (e Embedding) AppendPropOffsets(dst []uint32) (offs []uint32, propData []byte) {
	propData = e.propData()
	at := 0
	for at < len(propData) {
		dst = append(dst, uint32(at))
		sz, err := epgm.EncodedValueSize(propData[at:])
		if err != nil {
			panic("embedding: corrupt propData: " + err.Error())
		}
		at += sz
	}
	return append(dst, uint32(at)), propData
}

// Prop returns the property value at property column i. As in the paper,
// access walks the length information of the preceding entries; only the
// value asked for is decoded.
func (e Embedding) Prop(i int) epgm.PropertyValue {
	v, _, err := epgm.DecodePropertyValue(e.PropBytes(i))
	if err != nil {
		panic(fmt.Sprintf("embedding: property column %d: %v", i, err))
	}
	return v
}

// SizeBytes implements dataflow.Sized with the exact wire size: the three
// arrays, without the row's length word and prefix.
func (e Embedding) SizeBytes() int {
	if e.p == nil {
		return 0
	}
	return int(binary.BigEndian.Uint32(e.head()[:])) - prefixSize
}

// AppendID returns a copy of e with an identifier column appended.
func (e Embedding) AppendID(id epgm.ID) Embedding {
	row, buf, idAt, _, _, _ := (*Slab)(nil).extend(e, Drop{}, entrySize, 0, 0)
	putEntry(buf[idAt:], flagID, uint64(id))
	return row
}

// AppendPath returns a copy of e with a path column appended.
func (e Embedding) AppendPath(ids []epgm.ID) Embedding {
	return (*Slab)(nil).AppendPath(e, Keep{}, ids, 0, false)
}

// AppendProps returns a copy of e with property values appended to propData.
func (e Embedding) AppendProps(values ...epgm.PropertyValue) Embedding {
	row, buf, _, _, propAt, _ := (*Slab)(nil).extend(e, Drop{}, 0, 0, encodedSize(values))
	encodeProps(buf, propAt, values)
	return row
}

// Merge combines two embeddings after a join: all of o's columns except the
// ones listed in dropColumns (the join keys, already present in e) are
// appended to e, path offsets in o are rebased onto the combined pathData,
// and o's property values are appended. Merging is append-only for ids and
// properties, exactly as the paper describes; only o's path offsets need
// adjustment.
func (e Embedding) Merge(o Embedding, dropColumns []int) Embedding {
	var k Keep
	for _, c := range dropColumns {
		k.Right.dropID(c)
	}
	return (*Slab)(nil).Merge(e, o, k)
}

// IDsAt returns the identifiers at the given columns. Path columns
// contribute all of their identifiers; null columns contribute nothing.
func (e Embedding) IDsAt(columns []int) []epgm.ID {
	var out []epgm.ID
	for _, c := range columns {
		switch {
		case e.IsNullAt(c):
		case e.IsPath(c):
			out = append(out, e.Path(c)...)
		default:
			out = append(out, e.ID(c))
		}
	}
	return out
}

// DistinctAt reports whether the identifiers at the given columns (paths
// expanded) are pairwise distinct — the uniqueness check behind isomorphism
// semantics.
func (e Embedding) DistinctAt(columns []int) bool {
	ids := e.IDsAt(columns)
	seen := make(map[epgm.ID]struct{}, len(ids))
	for _, id := range ids {
		if _, ok := seen[id]; ok {
			return false
		}
		seen[id] = struct{}{}
	}
	return true
}

// String renders the embedding for debugging.
func (e Embedding) String() string {
	s := "["
	for i := 0; i < e.Columns(); i++ {
		if i > 0 {
			s += " "
		}
		switch {
		case e.IsNullAt(i):
			s += "null"
		case e.IsPath(i):
			s += fmt.Sprintf("path%v", e.Path(i))
		default:
			s += fmt.Sprintf("%d", e.ID(i))
		}
	}
	s += " |"
	for i := 0; i < e.PropCount(); i++ {
		s += " " + e.Prop(i).String()
	}
	return s + "]"
}
