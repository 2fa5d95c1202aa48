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

// TestSlabRowsAreCapacityClipped: a row carved from a slab owns exactly its
// bytes. With spare capacity behind it, appending to its buffer would write
// into the next row of the chunk.
func TestSlabRowsAreCapacityClipped(t *testing.T) {
	var s Slab
	rows, _ := slabRows(&s, 400) // several chunks, up to the largest size
	for i, e := range rows {
		if cap(e.buf) != len(e.buf) {
			t.Fatalf("row %d: cap %d != len %d", i, cap(e.buf), len(e.buf))
		}
	}
	// Growing a row's buffer must reallocate: the bytes behind it belong to
	// its neighbour and stay what they were.
	for i := 0; i+1 < len(rows); i++ {
		next := append([]byte(nil), rows[i+1].buf...)
		_ = append(rows[i].buf, 0xff, 0xff, 0xff, 0xff)
		if !bytes.Equal(rows[i+1].buf, next) {
			t.Fatalf("appending to row %d's buffer wrote into row %d", i, i+1)
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
		if !bytes.Equal(onSlab[i].buf, plain[i].buf) {
			t.Fatalf("row %d: slab %x, plain %x", i, onSlab[i].buf, plain[i].buf)
		}
	}
}

// TestDecodedRowsAreClippedViews: a decoded row is a view of the frame it
// came in, which the receiving attempt owns (cluster.readFrame gives every
// frame a body of its own - TestFramesNeverShareBytes there), clipped to its
// own length: an append to row i reallocates instead of writing into row
// i+1, and the routines that grow a row copy it, so nothing built from a
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
		if cap(rows[i].buf) != len(rows[i].buf) {
			t.Fatalf("row %d: decoded with cap %d != len %d", i, cap(rows[i].buf), len(rows[i].buf))
		}
		if len(rows[i].buf) > 0 && &rows[i].buf[0] != &frame[len(frame)-len(rest)-len(rows[i].buf)] {
			t.Fatalf("row %d is a copy, not a view of the frame", i)
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left over", len(rest))
	}
	var s Slab
	for i, e := range rows {
		_ = append(e.buf, 0xee)
		for _, grown := range []Embedding{
			e.AppendID(7), e.AppendProps(epgm.PVInt(1)), e.Merge(e, nil), e.AppendPath([]epgm.ID{1, 2, 3}),
			s.Merge(e, e, nil), s.AppendPath(e, []epgm.ID{4}, 5, true),
		} {
			grown.buf[len(grown.buf)-1] ^= 0xff
		}
		if got := e.String(); got != want[i] {
			t.Fatalf("row %d reads %s, want %s", i, got, want[i])
		}
	}
	if !bytes.Equal(frame, sent) {
		t.Fatal("growing decoded rows wrote to the frame")
	}
}
