package embedding

import (
	"bytes"
	"testing"

	"gradoop/internal/epgm"
)

// slabRows builds n rows of growing size on one slab, through every routine
// that carves from it, and returns them with what each must keep reading as.
func slabRows(s *Slab, n int) (rows []Embedding, want []string) {
	for i := 0; i < n; i++ {
		id := epgm.ID(i + 1)
		leaf := s.Row([]epgm.ID{id, id + 1000}, []epgm.PropertyValue{epgm.PVInt(int64(i)), epgm.PVString("name")})
		path := make([]epgm.ID, 1+2*(i%4))
		for j := range path {
			path[j] = id + epgm.ID(j)
		}
		for _, e := range []Embedding{
			leaf,
			s.AppendPath(leaf, path, id+7, true),
			s.Merge(leaf, s.PadNull(leaf, 1, 2), []int{0}),
			s.Project(s.AppendPath(leaf, path, 0, false), []int{2, 0}, []int{1}),
		} {
			rows = append(rows, e)
			want = append(want, e.String())
		}
	}
	return rows, want
}

// bytesOf returns e's wire row whole; nil for the empty embedding.
func bytesOf(e Embedding) []byte {
	if e.p == nil {
		return nil
	}
	return rowBytes(e.p)
}

// views returns every view of e's bytes an accessor hands out.
func views(e Embedding) [][]byte {
	idData, pathData, propData := e.arrays()
	vs := [][]byte{bytesOf(e), idData, pathData, propData, e.idData(), e.pathData(), e.propData()}
	for c := 0; c < e.Columns(); c++ {
		if e.IsPath(c) {
			vs = append(vs, e.path(c))
		}
	}
	for i := 0; i < e.PropCount(); i++ {
		vs = append(vs, e.PropBytes(i))
	}
	return vs
}

// endsInside reports whether view, extended to its capacity, ends at or
// before the last byte of row.
func endsInside(view, row []byte) bool {
	view = view[:cap(view)]
	if len(view) == 0 {
		return true
	}
	for i := range row {
		if &row[i] == &view[len(view)-1] {
			return true
		}
	}
	return false
}

// TestSlabRowsAreCapacityClipped: a row carved from a slab owns exactly its
// bytes. With spare capacity behind a view of it, appending to the view
// would write into the next row of the chunk.
func TestSlabRowsAreCapacityClipped(t *testing.T) {
	var s Slab
	rows, _ := slabRows(&s, 400) // several chunks, up to the largest size
	for i, e := range rows {
		row := bytesOf(e)
		if cap(row) != len(row) || len(row) != e.WireSize() || len(row) != headSize+e.SizeBytes() {
			t.Fatalf("row %d: cap %d, len %d, WireSize %d, SizeBytes %d", i, cap(row), len(row), e.WireSize(), e.SizeBytes())
		}
		for j, v := range views(e) {
			if !endsInside(v, row) {
				t.Fatalf("row %d: view %d (len %d, cap %d) reaches past the row", i, j, len(v), cap(v))
			}
		}
	}
	// Growing a view of a row must reallocate: the bytes behind the row
	// belong to its neighbour and stay what they were.
	for i := 0; i+1 < len(rows); i++ {
		next := bytes.Clone(bytesOf(rows[i+1]))
		for _, v := range views(rows[i]) {
			_ = append(v[:cap(v)], 0xff, 0xff, 0xff, 0xff)
		}
		if !bytes.Equal(bytesOf(rows[i+1]), next) {
			t.Fatalf("appending to row %d's bytes wrote into row %d", i, i+1)
		}
	}
}

// TestSlabSiblingsSurviveAppends: deriving new rows from a slab row - on the
// slab or through the value-semantic methods - leaves every other row of the
// slab reading exactly as before.
func TestSlabSiblingsSurviveAppends(t *testing.T) {
	var s Slab
	rows, want := slabRows(&s, 200)
	for i, e := range rows {
		grown := e.AppendID(epgm.ID(900000 + i))
		if grown.Columns() != e.Columns()+1 || grown.ID(grown.Columns()-1) != epgm.ID(900000+i) {
			t.Fatalf("row %d: AppendID gave %v", i, grown)
		}
		_ = e.AppendProps(epgm.PVString("a longer value than any before it"))
		_ = s.AppendPath(e, []epgm.ID{1, 2, 3}, 4, true)
		_ = s.Merge(e, e, nil)
	}
	for i, e := range rows {
		if got := e.String(); got != want[i] {
			t.Fatalf("row %d changed:\n got  %s\n want %s", i, got, want[i])
		}
	}
}

// TestSlabMatchesValueSemantics: the slab routines and the methods on
// Embedding are one routine; they must build byte-identical rows.
func TestSlabMatchesValueSemantics(t *testing.T) {
	var s Slab
	onSlab, _ := slabRows(&s, 50)
	plain, _ := slabRows(nil, 50)
	for i := range onSlab {
		if !bytes.Equal(bytesOf(onSlab[i]), bytesOf(plain[i])) {
			t.Fatalf("row %d: slab %x, plain %x", i, bytesOf(onSlab[i]), bytesOf(plain[i]))
		}
	}
}

// TestDecodedRowsAreClippedViews: a decoded row is a view of the frame it
// came in, which the receiving attempt owns (cluster.readFrame gives every
// frame a body of its own - TestFramesNeverShareBytes there), clipped to its
// own length: an append to a view of row i reallocates instead of writing
// into row i+1, and the routines that grow a row copy it, so nothing built from a
// decoded row writes to the frame.
func TestDecodedRowsAreClippedViews(t *testing.T) {
	src, want := slabRows(nil, 40)
	var frame []byte
	for _, e := range src {
		frame = e.AppendWire(frame)
	}
	sent := bytes.Clone(frame)
	rows := make([]Embedding, len(src))
	rest := frame
	for i := range rows {
		var err error
		if rest, err = rows[i].DecodeWireInto(rest); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		row := bytesOf(rows[i])
		if cap(row) != len(row) {
			t.Fatalf("row %d: decoded with cap %d != len %d", i, cap(row), len(row))
		}
		if rows[i].p != &frame[len(frame)-len(rest)-len(row)] {
			t.Fatalf("row %d is a copy, not a view of the frame", i)
		}
		for j, v := range views(rows[i]) {
			if !endsInside(v, row) {
				t.Fatalf("row %d: view %d (len %d, cap %d) reaches past the row", i, j, len(v), cap(v))
			}
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left over", len(rest))
	}
	var s Slab
	for i, e := range rows {
		for _, v := range views(e) {
			_ = append(v[:cap(v)], 0xee)
		}
		for _, grown := range []Embedding{
			e.AppendID(7), e.AppendProps(epgm.PVInt(1)), e.Merge(e, nil), e.AppendPath([]epgm.ID{1, 2, 3}),
			s.Merge(e, e, nil), s.AppendPath(e, []epgm.ID{4}, 5, true),
		} {
			b := bytesOf(grown)
			b[len(b)-1] ^= 0xff
		}
		if got := e.String(); got != want[i] {
			t.Fatalf("row %d reads %s, want %s", i, got, want[i])
		}
	}
	if !bytes.Equal(frame, sent) {
		t.Fatal("growing decoded rows wrote to the frame")
	}
}
