package embedding

import (
	"bytes"
	"encoding/binary"
	"testing"
	"unsafe"
)

// TestEmbeddingIsOneWord: a partition of rows, a shuffle destination and a
// path state's base cost 8 bytes a row (DESIGN decision 29).
func TestEmbeddingIsOneWord(t *testing.T) {
	if got := unsafe.Sizeof(Embedding{}); got != 8 {
		t.Fatalf("unsafe.Sizeof(Embedding{}) = %d, want 8", got)
	}
}

// TestRowIsItsWireRow: what AppendWire ships is the row as it sits in the
// slab, length word included, and decoding those bytes yields a row that
// points into them.
func TestRowIsItsWireRow(t *testing.T) {
	var s Slab
	rows, want := slabRows(&s, 60)
	for i, e := range rows {
		wire := e.AppendWire(nil)
		if !bytes.Equal(wire, bytesOf(e)) {
			t.Fatalf("row %d: AppendWire %x, in the slab %x", i, wire, bytesOf(e))
		}
		if n := int(binary.BigEndian.Uint32(wire)); n+4 != len(wire) || n != prefixSize+e.SizeBytes() {
			t.Fatalf("row %d: length word %d in front of %d bytes, SizeBytes %d", i, n, len(wire)-4, e.SizeBytes())
		}
		frame := append([]byte{0xaa, 0xbb, 0xcc}, wire...)
		var back Embedding
		rest, err := back.DecodeWireInto(frame[3:])
		if err != nil || len(rest) != 0 {
			t.Fatalf("row %d: %v, %d bytes left", i, err, len(rest))
		}
		if back.p != &frame[3] {
			t.Fatalf("row %d: decoded row does not point at its length word in the frame", i)
		}
		if got := back.String(); got != want[i] {
			t.Fatalf("row %d: decoded %s, want %s", i, got, want[i])
		}
	}
	var empty Embedding
	if empty.p != nil || empty.AppendID(1).p == nil {
		t.Fatal("the empty embedding is the nil pointer, and only it")
	}
}

// TestAppendPropOffsets: one pass gives what PropBytes finds by stepping,
// as offsets into the propData returned with them.
func TestAppendPropOffsets(t *testing.T) {
	var s Slab
	rows, _ := slabRows(&s, 20)
	rows = append(rows, Embedding{}, goldenRow(), Embedding{}.AppendID(4))
	buf := make([]uint32, 0, 8)
	for i, e := range rows {
		var props []byte
		buf, props = e.AppendPropOffsets(buf[:0])
		n := e.PropCount()
		if len(buf) != n+1 || buf[0] != 0 || int(buf[n]) != len(props) || len(props) != len(e.propData()) {
			t.Fatalf("row %d: offsets %v for %d values in %d bytes", i, buf, n, len(e.propData()))
		}
		for j := 0; j < n; j++ {
			if got, want := props[buf[j]:buf[j+1]], e.PropBytes(j); !bytes.Equal(got, want) || &got[0] != &want[0] {
				t.Fatalf("row %d: value %d at [%d,%d) is %x, PropBytes says %x", i, j, buf[j], buf[j+1], got, want)
			}
		}
	}
}

// atEndOfAllocation returns a copy of b whose last byte is the last byte of
// its allocation: an object of whole pages has a span of its own, so with
// checkptr armed (-race) a view that reaches past the input is a crash.
func atEndOfAllocation(b []byte) []byte {
	const page = 8 << 10
	arena := make([]byte, (len(b)/page+5)*page)
	in := arena[len(arena)-len(b):]
	copy(in, b)
	return in
}

// panics reports what f panicked with, nil if it returned.
func panics(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

// FuzzDecodeWire: whatever the bytes, DecodeWireInto returns an error or a
// row that lies inside the input, every view of which ends inside the row,
// and which AppendWire ships as the bytes it was decoded from. Column, path
// and property content is not checked at decode; reading a corrupt one may
// panic (an index out of range, "corrupt propData") but not read beyond the
// row. Run under -race, where checkptr holds every unsafe.Slice to that.
func FuzzDecodeWire(f *testing.F) {
	var s Slab
	rows, _ := slabRows(&s, 3)
	for _, e := range append(rows, Embedding{}, goldenRow()) {
		f.Add(e.AppendWire(nil))
	}
	f.Add(wireRow(8, rowPrefix(0, 0)...))
	f.Add(wireRow(30, rowPrefix(9, 8, 1, 0, 0, 0, 0, 0, 0, 0, 0xff, 0, 0, 0, 9, 1, 2, 3, 4, 0xee)...))
	f.Add([]byte{0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		in := atEndOfAllocation(b)
		var e Embedding
		rest, err := e.DecodeWireInto(in)
		if err != nil {
			return
		}
		used := in[:len(in)-len(rest)]
		if e.p == nil {
			if n := binary.BigEndian.Uint32(used); n != 0 && n != prefixSize {
				t.Fatalf("%x decoded to the empty embedding", used)
			}
			return
		}
		row := bytesOf(e)
		if e.p != &used[0] || len(row) != len(used) {
			t.Fatalf("row of %d bytes at %p, decoded from %d bytes at %p", len(row), e.p, len(used), &used[0])
		}
		if e.WireSize() != len(used) || e.SizeBytes() != len(used)-headSize || !bytes.Equal(e.AppendWire(nil), used) {
			t.Fatalf("WireSize %d, SizeBytes %d, AppendWire %x of %x", e.WireSize(), e.SizeBytes(), e.AppendWire(nil), used)
		}
		idData, pathData, propData := e.arrays()
		for i, v := range [][]byte{idData, pathData, propData, e.idData()} {
			if !endsInside(v, row) {
				t.Fatalf("view %d (len %d, cap %d) reaches past a row of %d bytes", i, len(v), cap(v), len(row))
			}
		}
		for c := 0; c < e.Columns(); c++ {
			if e.IsPath(c) {
				var path []byte
				if panics(func() { path = e.path(c) }) == nil && !endsInside(path, row) {
					t.Fatalf("path at column %d reaches past the row", c)
				}
				panics(func() { e.Path(c); e.PathLen(c) })
			} else if !e.IsNullAt(c) {
				e.ID(c)
			}
		}
		var n int
		if panics(func() { n = e.PropCount() }) != nil {
			return
		}
		for i := 0; i < n; i++ {
			if v := e.PropBytes(i); !endsInside(v, row) {
				t.Fatalf("property %d reaches past the row", i)
			}
		}
		if offs, props := e.AppendPropOffsets(nil); len(offs) != n+1 || int(offs[n]) != len(propData) || !endsInside(props, row) {
			t.Fatalf("offsets %v for %d values in %d bytes", offs, n, len(propData))
		}
	})
}
