package embedding

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"gradoop/internal/epgm"
)

// column is one id column as a test sees it: an id, a path or NULL.
type column struct {
	null bool
	id   epgm.ID
	path []epgm.ID // non-nil: a path column
}

// columnsOf reads e's columns and property values back.
func columnsOf(e Embedding) ([]column, []epgm.PropertyValue) {
	cols := make([]column, e.Columns())
	for c := range cols {
		switch {
		case e.IsNullAt(c):
			cols[c].null = true
		case e.IsPath(c):
			cols[c].path = e.Path(c)
		default:
			cols[c].id = e.ID(c)
		}
	}
	props := make([]epgm.PropertyValue, e.PropCount())
	for i := range props {
		props[i] = e.Prop(i)
	}
	return cols, props
}

// build writes cols and props the long way, one value-semantic append each:
// the row a narrow writer must have made.
func build(cols []column, props []epgm.PropertyValue) Embedding {
	var e Embedding
	for _, c := range cols {
		switch {
		case c.null:
			e = nullCol(e)
		case c.path != nil:
			e = e.AppendPath(c.path)
		default:
			e = e.AppendID(c.id)
		}
	}
	return e.AppendProps(props...)
}

// kept is what d leaves of cols and props.
func kept(d Drop, cols []column, props []epgm.PropertyValue) ([]column, []epgm.PropertyValue) {
	var kc []column
	for c, col := range cols {
		if !d.dropsID(c) {
			kc = append(kc, col)
		}
	}
	var kp []epgm.PropertyValue
	for i, p := range props {
		if !d.dropsProp(i) {
			kp = append(kp, p)
		}
	}
	return kc, kp
}

// randomRow is a row of up to six columns - ids, paths of one to five
// identifiers, NULLs - and up to four values of mixed types.
func randomRow(rng *rand.Rand) ([]column, []epgm.PropertyValue) {
	cols := make([]column, rng.Intn(7))
	for c := range cols {
		switch rng.Intn(4) {
		case 0:
			cols[c].null = true
		case 1:
			cols[c].path = make([]epgm.ID, 1+rng.Intn(5))
			for j := range cols[c].path {
				cols[c].path[j] = epgm.ID(rng.Int63n(1000))
			}
		default:
			cols[c].id = epgm.ID(rng.Int63n(1000))
		}
	}
	props := make([]epgm.PropertyValue, rng.Intn(5))
	for i := range props {
		switch rng.Intn(3) {
		case 0:
			props[i] = epgm.Null
		case 1:
			props[i] = epgm.PVInt(rng.Int63())
		default:
			props[i] = epgm.PVString(string(make([]byte, rng.Intn(20))))
		}
	}
	return cols, props
}

// TestNarrowWritersMatchTheLongWay: Merge, PadNull and AppendPath under any
// keep-mask write, byte for byte, the row that appending the columns and values
// the mask keeps one at a time builds - path offsets rebased whichever paths
// went - on a slab and off one.
func TestNarrowWritersMatchTheLongWay(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	var s Slab
	for i := range 2000 {
		lc, lp := randomRow(rng)
		rc, rp := randomRow(rng)
		l, r := build(lc, lp), build(rc, rp)
		k := Keep{Left: Drop{IDs: rng.Uint64(), Props: rng.Uint64()}, Right: Drop{IDs: rng.Uint64(), Props: rng.Uint64()}}
		if rng.Intn(4) == 0 {
			k.Left = Drop{} // the fast path: every column of the left row
		}
		klc, klp := kept(k.Left, lc, lp)
		krc, krp := kept(k.Right, rc, rp)

		want := build(append(klc, krc...), append(klp, krp...))
		for _, slab := range []*Slab{nil, &s} {
			if got := slab.Merge(l, r, k); !bytes.Equal(bytesOf(got), bytesOf(want)) {
				t.Fatalf("case %d: Merge under %+v\n got %v\nwant %v", i, k, got, want)
			}
		}

		nulls := make([]column, 0, len(rc))
		props := make([]epgm.PropertyValue, 0, len(rp))
		for range krc {
			nulls = append(nulls, column{null: true})
		}
		for range krp {
			props = append(props, epgm.Null)
		}
		want = build(append(klc, nulls...), append(klp, props...))
		if got := s.PadNull(l, k, len(rc), len(rp)); !bytes.Equal(bytesOf(got), bytesOf(want)) {
			t.Fatalf("case %d: PadNull under %+v\n got %v\nwant %v", i, k, got, want)
		}

		path := []epgm.ID{7, 8, 9}
		end, bindEnd := epgm.ID(11), rng.Intn(2) == 0
		tail := []column{{path: path}, {id: end}}
		if !bindEnd {
			tail = tail[:1]
		}
		tail, _ = kept(k.Right, tail, nil)
		want = build(append(klc, tail...), klp)
		if got := s.AppendPath(l, k, path, end, bindEnd); !bytes.Equal(bytesOf(got), bytesOf(want)) {
			t.Fatalf("case %d: AppendPath under %+v\n got %v\nwant %v", i, k, got, want)
		}
	}
}

// TestWideRowsDropPastTheFirstWord: a row of more than 64 id columns - a query
// of that many variables - leaves out columns from the 64th on as well: a
// right column that repeats a left binding goes wherever it sits, and the
// writers still match the long way.
func TestWideRowsDropPastTheFirstWord(t *testing.T) {
	l, r := NewMeta(), NewMeta()
	l.AddEntry("a", VertexEntry)
	var cols []column
	for c := range 130 {
		v := fmt.Sprintf("v%d", c)
		if c == 66 {
			v = "a"
		}
		r.AddEntry(v, VertexEntry)
		cols = append(cols, column{id: epgm.ID(c + 1)})
		if c%7 == 3 {
			cols[c] = column{path: []epgm.ID{epgm.ID(c), 9, epgm.ID(c + 1)}}
		}
	}
	out, k := l.Merge(r, func(v, _ string) bool { return v != "v64" && v != "v129" && v != "v2" })
	if out.Columns() != 1+130-4 || out.HasVar("v64") || out.Var(0) != "a" || out.Var(out.Columns()-1) != "v128" {
		t.Fatalf("merged meta %s", out)
	}
	for c := range 130 {
		if want := c == 2 || c == 64 || c == 66 || c == 129; k.Right.dropsID(c) != want {
			t.Fatalf("column %d left out: %v", c, !want)
		}
	}

	left, right := build([]column{{id: 500}}, nil), build(cols, nil)
	krc, _ := kept(k.Right, cols, nil)
	want := build(append([]column{{id: 500}}, krc...), nil)
	var s Slab
	if got := s.Merge(left, right, k); !bytes.Equal(bytesOf(got), bytesOf(want)) {
		t.Fatalf("Merge\n got %v\nwant %v", got, want)
	}
	if got := left.Merge(right, []int{2, 64, 66, 129}); !bytes.Equal(bytesOf(got), bytesOf(want)) {
		t.Fatalf("value-semantic Merge\n got %v\nwant %v", got, want)
	}
	nulls := make([]column, len(krc))
	for i := range nulls {
		nulls[i].null = true
	}
	want = build(append([]column{{id: 500}}, nulls...), nil)
	if got := s.PadNull(left, k, len(cols), 0); !bytes.Equal(bytesOf(got), bytesOf(want)) {
		t.Fatalf("PadNull\n got %v\nwant %v", got, want)
	}
}

// TestMetaMergeKeepsWhatIsRead: the metadata Merge returns and its keep-mask
// leave out the same columns - a variable nothing reads goes from either side,
// a shared one stays once, on the left, if it is read - and the written row
// reads, column for column, as the metadata says.
func TestMetaMergeKeepsWhatIsRead(t *testing.T) {
	l := NewMeta()
	l.AddEntry("a", VertexEntry)
	l.AddEntry("e1", EdgeEntry)
	l.AddEntry("b", VertexEntry)
	l.AddProp("a", "name")
	l.AddProp("b", "age")
	r := NewMeta()
	r.AddEntry("b", VertexEntry)
	r.AddEntry("p", PathEntry)
	r.AddEntry("c", VertexEntry)
	r.AddProp("c", "name")

	live := func(v, key string) bool {
		switch key {
		case "":
			return v == "a" || v == "p" || v == "c"
		default:
			return v+"."+key == "c.name"
		}
	}
	out, k := l.Merge(r, live)
	if got := out.String(); got != "{a:0(vertex), p:1(path), c:2(vertex), c.name:0}" {
		t.Fatalf("merged meta %s", got)
	}
	if want := (Keep{Left: Drop{IDs: 0b110, Props: 0b11}, Right: Drop{IDs: 0b001}}); k != want {
		t.Fatalf("keep %+v, want %+v", k, want)
	}

	var left, right Embedding
	left = left.AppendID(1).AppendID(100).AppendID(2).AppendProps(epgm.PVString("A"), epgm.PVInt(30))
	right = right.AppendID(2).AppendPath([]epgm.ID{200, 3, 201}).AppendID(4).AppendProps(epgm.PVString("C"))
	row := (*Slab)(nil).Merge(left, right, k)
	if row.Columns() != out.Columns() || row.PropCount() != out.PropColumns() {
		t.Fatalf("row %v for meta %s", row, out)
	}
	if row.ID(0) != 1 || len(row.Path(1)) != 3 || row.ID(2) != 4 || row.Prop(0).Str() != "C" {
		t.Fatalf("row %v", row)
	}

	// Nothing read: a row of nothing, which is the empty embedding.
	none, k := l.Merge(r, func(string, string) bool { return false })
	if none.Columns() != 0 || none.PropColumns() != 0 {
		t.Fatalf("meta of nothing read: %s", none)
	}
	if e := (*Slab)(nil).Merge(left, right, k); e.p != nil || e.SizeBytes() != 0 {
		t.Fatalf("row of nothing read: %v", e)
	}
}
