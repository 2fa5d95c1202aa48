package embedding

import (
	"encoding/binary"
	"math/bits"

	"gradoop/internal/epgm"
)

// A row writer - a join, an outer join, a cartesian product, an expansion -
// writes only the columns something above it still reads (Meta.Merge). What
// it leaves out of each input row is a Drop, and the two of them are its Keep:
// the planner decides it once, when it builds the operator, and the row is
// written narrow from the start, with no projection after it.

// Live says what the rest of a query reads of the rows an operator writes:
// live(v, "") whether the id column of variable v, live(v, k) whether the
// property column v.k. A nil Live reads every column.
type Live func(variable, key string) bool

func (l Live) reads(variable, key string) bool { return l == nil || l(variable, key) }

// Drop is what a row writer leaves out of one input row: bit c of IDs for its
// id column c, bit i of Props for its property column i. The id columns from
// the 64th on are in far - bit c%64 of word c/64-1 - which stays nil while
// none of them goes: a row that wide is rare, and a writer tells the zero
// Drop, which leaves out nothing, by comparing with Drop{}. A property column
// from the 64th on is always written.
type Drop struct {
	IDs, Props uint64
	far        *[]uint64
}

// Keep is a row writer's keep-mask over its two input rows. The zero Keep
// writes every column of both.
type Keep struct{ Left, Right Drop }

func (d Drop) dropsID(c int) bool {
	if c < 64 {
		return d.IDs>>c&1 != 0
	}
	return c/64 < d.words() && d.word(c/64)>>(c%64)&1 != 0
}

func (d Drop) dropsProp(i int) bool { return i < 64 && d.Props>>i&1 != 0 }

// dropID marks id column c left out.
func (d *Drop) dropID(c int) {
	if c < 64 {
		d.IDs |= 1 << c
		return
	}
	if d.far == nil {
		d.far = new([]uint64)
	}
	for len(*d.far) < c/64 {
		*d.far = append(*d.far, 0)
	}
	(*d.far)[c/64-1] |= 1 << (c % 64)
}

// words returns how many words of 64 id columns d spans; word returns word k.
func (d Drop) words() int {
	if d.far == nil {
		return 1
	}
	return 1 + len(*d.far)
}

func (d Drop) word(k int) uint64 {
	if k == 0 {
		return d.IDs
	}
	return (*d.far)[k-1]
}

// count returns how many of the first cols id columns and props property
// columns d keeps.
func (d Drop) count(cols, props int) (keptCols, keptProps int) {
	keptCols = cols
	for k := range d.words() {
		keptCols -= bits.OnesCount64(d.word(k) & lowBits(cols-64*k))
	}
	return keptCols, props - bits.OnesCount64(d.Props&lowBits(props))
}

// lowBits is the mask of bits 0 to n-1.
func lowBits(n int) uint64 {
	switch {
	case n <= 0:
		return 0
	case n >= 64:
		return ^uint64(0)
	}
	return 1<<n - 1
}

// kept returns the bytes of each array of a row that d keeps. It visits the
// columns d leaves out, a join's key columns on its right row, and no other.
func (d Drop) kept(ids, paths, props []byte) (id, path, prop int) {
	id, path = len(ids), len(paths)
	for k := range d.words() {
		for s := d.word(k) & lowBits(len(ids)/entrySize-64*k); s != 0; s &= s - 1 {
			c := 64*k + bits.TrailingZeros64(s)
			id -= entrySize
			if ids[c*entrySize] == flagPath {
				path -= len(pathAt(ids, paths, c))
			}
		}
	}
	if d.Props == 0 {
		return id, path, len(props)
	}
	for i, at := 0, 0; at < len(props); i++ {
		sz := valueSize(props[at:])
		if !d.dropsProp(i) {
			prop += sz
		}
		at += sz
	}
	return id, path, prop
}

// dropsPath reports whether d leaves out a path column of a row.
func (d Drop) dropsPath(ids []byte) bool {
	for k := range d.words() {
		for s := d.word(k) & lowBits(len(ids)/entrySize-64*k); s != 0; s &= s - 1 {
			if ids[(64*k+bits.TrailingZeros64(s))*entrySize] == flagPath {
				return true
			}
		}
	}
	return false
}

// pathAt returns the encoded path of path column c: its length word and its
// identifiers.
func pathAt(ids, paths []byte, c int) []byte {
	at := binary.BigEndian.Uint64(ids[c*entrySize+1:])
	return paths[at : at+4+8*uint64(binary.BigEndian.Uint32(paths[at:]))]
}

func valueSize(b []byte) int {
	sz, err := epgm.EncodedValueSize(b)
	if err != nil {
		panic("embedding: corrupt propData: " + err.Error())
	}
	return sz
}

// writeIDs writes the id columns of a row that d keeps at buf[idAt:] and their
// paths at buf[at:], a path's offset counted from pathBase, where the written
// row's pathData starts; it returns where the next column and path go. Where
// no offset moves - every path stays and lands where it was, or there is none
// - a column is copied as it is and the paths in one piece; otherwise each
// path is copied behind the last and its offset rewritten.
func (d Drop) writeIDs(buf []byte, idAt, at, pathBase int, ids, paths []byte) (int, int) {
	if (at == pathBase || len(paths) == 0) && !d.dropsPath(ids) {
		for c := 0; c*entrySize < len(ids); c++ {
			if !d.dropsID(c) {
				idAt += copy(buf[idAt:idAt+entrySize], ids[c*entrySize:(c+1)*entrySize])
			}
		}
		if len(paths) > 0 {
			at += copy(buf[at:], paths)
		}
		return idAt, at
	}
	for c := 0; c*entrySize < len(ids); c++ {
		if d.dropsID(c) {
			continue
		}
		ent := ids[c*entrySize : (c+1)*entrySize]
		payload := binary.BigEndian.Uint64(ent[1:])
		if ent[0] == flagPath {
			payload = uint64(at - pathBase)
			at += copy(buf[at:], pathAt(ids, paths, c))
		}
		putEntry(buf[idAt:], ent[0], payload)
		idAt += entrySize
	}
	return idAt, at
}

// writeProps writes the property values of a row that d keeps at buf[at:] and
// returns where the next one goes.
func (d Drop) writeProps(buf []byte, at int, props []byte) int {
	if d.Props == 0 {
		return at + copy(buf[at:], props)
	}
	for i, from := 0, 0; from < len(props); i++ {
		sz := valueSize(props[from:])
		if !d.dropsProp(i) {
			at += copy(buf[at:], props[from:from+sz])
		}
		from += sz
	}
	return at
}
