package embedding

import (
	"testing"
	"testing/quick"

	"gradoop/internal/epgm"
)

func TestAppendAndAccessIDs(t *testing.T) {
	var e Embedding
	e = e.AppendID(10).AppendID(20).AppendID(30)
	if e.Columns() != 3 {
		t.Fatalf("columns=%d", e.Columns())
	}
	for i, want := range []epgm.ID{10, 20, 30} {
		if e.IsPath(i) {
			t.Fatalf("column %d misflagged as path", i)
		}
		if got := e.ID(i); got != want {
			t.Fatalf("column %d: got %d want %d", i, got, want)
		}
	}
}

func TestPaperPhysicalExample(t *testing.T) {
	// The paper's example: idData = {ID,10, PATH,0, ID,30},
	// pathData = {3, 5,20,7}, propData = {Alice, Bob}.
	var e Embedding
	e = e.AppendID(10)
	e = e.AppendPath([]epgm.ID{5, 20, 7})
	e = e.AppendID(30)
	e = e.AppendProps(epgm.PVString("Alice"), epgm.PVString("Bob"))

	if e.Columns() != 3 {
		t.Fatalf("columns=%d", e.Columns())
	}
	if e.ID(0) != 10 || e.ID(2) != 30 {
		t.Fatal("endpoint ids wrong")
	}
	if !e.IsPath(1) {
		t.Fatal("column 1 should be a path")
	}
	path := e.Path(1)
	if len(path) != 3 || path[0] != 5 || path[1] != 20 || path[2] != 7 {
		t.Fatalf("path=%v", path)
	}
	if e.PathLen(1) != 3 {
		t.Fatalf("pathLen=%d", e.PathLen(1))
	}
	if e.PropCount() != 2 {
		t.Fatalf("props=%d", e.PropCount())
	}
	if e.Prop(0).Str() != "Alice" || e.Prop(1).Str() != "Bob" {
		t.Fatalf("props: %v %v", e.Prop(0), e.Prop(1))
	}
}

func TestAppendIsCopyOnWrite(t *testing.T) {
	var base Embedding
	base = base.AppendID(1)
	a := base.AppendID(2)
	b := base.AppendID(3)
	if a.ID(1) != 2 || b.ID(1) != 3 {
		t.Fatalf("append aliased: a=%v b=%v", a, b)
	}
	if base.Columns() != 1 {
		t.Fatal("base mutated")
	}
}

func TestMergeDropsJoinColumnsAndRebasesPaths(t *testing.T) {
	// Left: [a=1, path p, b=2] ; Right: [b=2, path q, c=3].
	var l Embedding
	l = l.AppendID(1).AppendPath([]epgm.ID{100, 101}).AppendID(2)
	l = l.AppendProps(epgm.PVString("L"))
	var r Embedding
	r = r.AppendID(2).AppendPath([]epgm.ID{200}).AppendID(3)
	r = r.AppendProps(epgm.PVInt(7))

	m := l.Merge(r, []int{0}) // drop right's b column
	if m.Columns() != 5 {
		t.Fatalf("columns=%d want 5", m.Columns())
	}
	if m.ID(0) != 1 || m.ID(2) != 2 || m.ID(4) != 3 {
		t.Fatalf("ids wrong: %v", m)
	}
	p := m.Path(1)
	if len(p) != 2 || p[0] != 100 {
		t.Fatalf("left path corrupted: %v", p)
	}
	q := m.Path(3)
	if len(q) != 1 || q[0] != 200 {
		t.Fatalf("right path not rebased: %v", q)
	}
	if m.PropCount() != 2 || m.Prop(0).Str() != "L" || m.Prop(1).Int() != 7 {
		t.Fatalf("props wrong: %v", m)
	}
}

func TestMergeMultipleDrops(t *testing.T) {
	var l Embedding
	l = l.AppendID(1).AppendID(2)
	var r Embedding
	r = r.AppendID(1).AppendID(5).AppendID(2)
	m := l.Merge(r, []int{0, 2})
	if m.Columns() != 3 || m.ID(2) != 5 {
		t.Fatalf("merge: %v", m)
	}
}

func TestDistinctAt(t *testing.T) {
	var e Embedding
	e = e.AppendID(1).AppendID(2).AppendID(1)
	if !e.DistinctAt([]int{0, 1}) {
		t.Fatal("distinct columns flagged as duplicate")
	}
	if e.DistinctAt([]int{0, 2}) {
		t.Fatal("duplicate ids not detected")
	}
	// Paths participate with all their ids.
	var p Embedding
	p = p.AppendID(5).AppendPath([]epgm.ID{7, 5, 8})
	if p.DistinctAt([]int{0, 1}) {
		t.Fatal("path overlap not detected")
	}
	var ok Embedding
	ok = ok.AppendID(5).AppendPath([]epgm.ID{7, 6, 8})
	if !ok.DistinctAt([]int{0, 1}) {
		t.Fatal("false positive on disjoint path")
	}
}

// nullCol appends one unbound column.
func nullCol(e Embedding) Embedding { return (*Slab)(nil).PadNull(e, 1, 0) }

func TestNullColumns(t *testing.T) {
	var e Embedding
	e = nullCol(e.AppendID(5)).AppendPath([]epgm.ID{7})
	if e.Columns() != 3 {
		t.Fatalf("columns=%d", e.Columns())
	}
	if e.IsNullAt(0) || !e.IsNullAt(1) || e.IsNullAt(2) {
		t.Fatal("null flags")
	}
	// Nulls contribute nothing to id collections or distinctness checks.
	ids := e.IDsAt([]int{0, 1, 2})
	if len(ids) != 2 || ids[0] != 5 || ids[1] != 7 {
		t.Fatalf("ids=%v", ids)
	}
	if !e.DistinctAt([]int{0, 1}) {
		t.Fatal("null should not collide")
	}
	// Merge carries nulls through.
	var r Embedding
	r = nullCol(r.AppendID(5))
	m := e.Merge(r, []int{0})
	if m.Columns() != 4 || !m.IsNullAt(3) {
		t.Fatalf("merged: %v", m)
	}
	// PadNull appends columns and NULL property values in one row, on a slab
	// or without one.
	var s Slab
	for _, slab := range []*Slab{nil, &s} {
		p := slab.PadNull(e.AppendProps(epgm.PVInt(1)), 2, 3)
		if p.Columns() != 5 || p.ID(0) != 5 || !p.IsNullAt(3) || !p.IsNullAt(4) || len(p.Path(2)) != 1 {
			t.Fatalf("padded columns: %v", p)
		}
		if p.PropCount() != 4 || p.Prop(0).Int() != 1 || !p.Prop(1).IsNull() || !p.Prop(3).IsNull() {
			t.Fatalf("padded properties: %v", p)
		}
		if p.SizeBytes() != e.SizeBytes()+9+2*entrySize+3 {
			t.Fatalf("padded size %d over %d", p.SizeBytes(), e.SizeBytes())
		}
	}
	if p := (*Slab)(nil).PadNull(Embedding{}, 0, 0); p.Columns() != 0 || p.SizeBytes() != 0 {
		t.Fatalf("nothing padded with nothing: %v", p)
	}
}

func TestSizeBytesMatchesData(t *testing.T) {
	var e Embedding
	e = e.AppendID(1).AppendPath([]epgm.ID{2, 3}).AppendProps(epgm.PVString("ab"))
	want := 2*entrySize + (4 + 16) + (1 + 4 + 2)
	if got := e.SizeBytes(); got != want {
		t.Fatalf("size=%d want %d", got, want)
	}
}

func TestQuickMergeRoundTrip(t *testing.T) {
	f := func(leftIDs, rightIDs []uint16, pathIDs []uint16) bool {
		if len(leftIDs) == 0 || len(rightIDs) == 0 {
			return true
		}
		var l Embedding
		for _, id := range leftIDs {
			l = l.AppendID(epgm.ID(id) + 1)
		}
		var r Embedding
		// First column of right is the shared join key.
		r = r.AppendID(l.ID(0))
		ids := make([]epgm.ID, len(pathIDs))
		for i, id := range pathIDs {
			ids[i] = epgm.ID(id)
		}
		r = r.AppendPath(ids)
		for _, id := range rightIDs {
			r = r.AppendID(epgm.ID(id) + 1)
		}
		m := l.Merge(r, []int{0})
		if m.Columns() != len(leftIDs)+1+len(rightIDs) {
			return false
		}
		// Left ids unchanged.
		for i := range leftIDs {
			if m.ID(i) != epgm.ID(leftIDs[i])+1 {
				return false
			}
		}
		// Path preserved.
		got := m.Path(len(leftIDs))
		if len(got) != len(ids) {
			return false
		}
		for i := range ids {
			if got[i] != ids[i] {
				return false
			}
		}
		// Right ids follow.
		for i := range rightIDs {
			if m.ID(len(leftIDs)+1+i) != epgm.ID(rightIDs[i])+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMetaBasics(t *testing.T) {
	m := NewMeta()
	c0 := m.AddEntry("p1", VertexEntry)
	c1 := m.AddEntry("e", PathEntry)
	c2 := m.AddEntry("p2", VertexEntry)
	p0 := m.AddProp("p1", "name")
	if c0 != 0 || c1 != 1 || c2 != 2 || p0 != 0 {
		t.Fatal("column allocation")
	}
	if col, ok := m.Column("p2"); !ok || col != 2 {
		t.Fatal("column lookup")
	}
	if _, ok := m.Column("nope"); ok {
		t.Fatal("phantom column")
	}
	if col, ok := m.PropColumn("p1", "name"); !ok || col != 0 {
		t.Fatal("prop lookup")
	}
	if _, ok := m.PropColumn("p1", "age"); ok {
		t.Fatal("phantom prop")
	}
	if got := m.VertexColumns(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("vertex columns=%v", got)
	}
	if got := m.EdgeColumns(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("edge columns=%v", got)
	}
	if m.Kind(1) != PathEntry || m.Var(1) != "e" {
		t.Fatal("kind/var")
	}
}

func TestMetaMergeMirrorsEmbeddingMerge(t *testing.T) {
	l := NewMeta()
	l.AddEntry("a", VertexEntry)
	l.AddEntry("e1", EdgeEntry)
	l.AddEntry("b", VertexEntry)
	l.AddProp("a", "name")

	r := NewMeta()
	r.AddEntry("b", VertexEntry)
	r.AddEntry("e2", EdgeEntry)
	r.AddEntry("c", VertexEntry)
	r.AddProp("c", "name")

	merged, drop := l.Merge(r)
	if len(drop) != 1 || drop[0] != 0 {
		t.Fatalf("drop=%v", drop)
	}
	wantVars := []string{"a", "e1", "b", "e2", "c"}
	if got := merged.Vars(); len(got) != len(wantVars) {
		t.Fatalf("vars=%v", got)
	}
	for i, v := range wantVars {
		if merged.Var(i) != v {
			t.Fatalf("vars=%v", merged.Vars())
		}
	}
	if merged.PropColumns() != 2 {
		t.Fatalf("prop columns=%d", merged.PropColumns())
	}
	if pc, ok := merged.PropColumn("c", "name"); !ok || pc != 1 {
		t.Fatalf("c.name column=%d ok=%v", pc, ok)
	}
	// The original metas are untouched.
	if l.Columns() != 3 || r.Columns() != 3 {
		t.Fatal("merge mutated inputs")
	}
}

func TestMetaSharedVars(t *testing.T) {
	l := NewMeta()
	l.AddEntry("a", VertexEntry)
	l.AddEntry("b", VertexEntry)
	r := NewMeta()
	r.AddEntry("b", VertexEntry)
	r.AddEntry("c", VertexEntry)
	shared := l.SharedVars(r)
	if len(shared) != 1 || shared[0] != "b" {
		t.Fatalf("shared=%v", shared)
	}
}
