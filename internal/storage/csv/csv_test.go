package csv

import (
	"os"
	"path/filepath"
	"sort"
	"testing"
	"unsafe"

	"gradoop/internal/dataflow"
	"gradoop/internal/epgm"
)

func sample(workers int) *epgm.LogicalGraph {
	env := dataflow.NewEnv(dataflow.DefaultConfig(workers))
	v1 := epgm.Vertex{ID: epgm.NewID(), Label: "Person", Properties: epgm.Properties{}.
		Set("name", epgm.PVString("Ali;ce|br,own\nx")).
		Set("age", epgm.PVInt(30)).
		Set("score", epgm.PVFloat(1.5)).
		Set("active", epgm.PVBool(true))}
	v2 := epgm.Vertex{ID: epgm.NewID(), Label: "Person", Properties: epgm.Properties{}.
		Set("name", epgm.PVString(""))} // empty string, no other props
	v3 := epgm.Vertex{ID: epgm.NewID(), Label: "Ta;g"}
	e1 := epgm.Edge{ID: epgm.NewID(), Label: "knows", Source: v1.ID, Target: v2.ID,
		Properties: epgm.Properties{}.Set("since", epgm.PVInt(2020))}
	e2 := epgm.Edge{ID: epgm.NewID(), Label: "hasInterest", Source: v1.ID, Target: v3.ID}
	return epgm.GraphFromSlices(env, "Community", []epgm.Vertex{v1, v2, v3}, []epgm.Edge{e1, e2})
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g := sample(3)
	if err := WriteLogicalGraph(g, dir); err != nil {
		t.Fatal(err)
	}
	env := dataflow.NewEnv(dataflow.DefaultConfig(2))
	g2, err := ReadLogicalGraph(env, dir)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Head.ID != g.Head.ID || g2.Head.Label != "Community" {
		t.Fatalf("head: %+v", g2.Head)
	}
	if g2.VertexCount() != 3 || g2.EdgeCount() != 2 {
		t.Fatalf("counts: %d/%d", g2.VertexCount(), g2.EdgeCount())
	}

	byID := map[epgm.ID]epgm.Vertex{}
	for _, v := range g2.Vertices.Collect() {
		byID[v.ID] = v
	}
	orig := g.Vertices.Collect()
	v1 := byID[orig[0].ID]
	if v1.Properties.Get("name").Str() != "Ali;ce|br,own\nx" {
		t.Fatalf("escaped string lost: %q", v1.Properties.Get("name").Str())
	}
	if v1.Properties.Get("age").Int() != 30 || v1.Properties.Get("score").Float() != 1.5 || !v1.Properties.Get("active").Bool() {
		t.Fatalf("typed props: %v", v1.Properties)
	}
	v2 := byID[orig[1].ID]
	if v2.Properties.Get("name").Str() != "" || v2.Properties.Get("name").IsNull() {
		t.Fatalf("empty string not preserved: %v", v2.Properties.Get("name"))
	}
	if v2.Properties.Has("age") {
		t.Fatal("absent property materialized")
	}
	v3 := byID[orig[2].ID]
	if v3.Label != "Ta;g" {
		t.Fatalf("escaped label: %q", v3.Label)
	}
	// Graph membership survived.
	if !v1.GraphIDs.Contains(g.Head.ID) {
		t.Fatal("membership lost")
	}

	edges := g2.Edges.Collect()
	sort.Slice(edges, func(i, j int) bool { return edges[i].ID < edges[j].ID })
	if edges[0].Source != orig[0].ID || edges[0].Target != orig[1].ID {
		t.Fatalf("edge endpoints: %+v", edges[0])
	}
	if edges[0].Properties.Get("since").Int() != 2020 {
		t.Fatalf("edge props: %v", edges[0].Properties)
	}
}

func TestReadAdvancesIDAllocator(t *testing.T) {
	dir := t.TempDir()
	g := sample(1)
	if err := WriteLogicalGraph(g, dir); err != nil {
		t.Fatal(err)
	}
	env := dataflow.NewEnv(dataflow.DefaultConfig(1))
	g2, err := ReadLogicalGraph(env, dir)
	if err != nil {
		t.Fatal(err)
	}
	var maxLoaded epgm.ID
	for _, v := range g2.Vertices.Collect() {
		if v.ID > maxLoaded {
			maxLoaded = v.ID
		}
	}
	if id := epgm.NewID(); id <= maxLoaded {
		t.Fatalf("NewID()=%d collides with loaded ids (max %d)", id, maxLoaded)
	}
}

// TestLabelsAreInterned: every element of one label carries the same string,
// not a substring of the line it was read from (which would keep the line
// alive with it), and a label that needed unescaping still reads back whole.
func TestLabelsAreInterned(t *testing.T) {
	env := dataflow.NewEnv(dataflow.DefaultConfig(1))
	var vs []epgm.Vertex
	for i := 0; i < 6; i++ {
		label := "Person"
		if i%3 == 2 {
			label = "Ta;g"
		}
		vs = append(vs, epgm.Vertex{ID: epgm.NewID(), Label: label})
	}
	var es []epgm.Edge
	for i := 0; i < 4; i++ {
		es = append(es, epgm.Edge{ID: epgm.NewID(), Label: "kno|ws", Source: vs[i].ID, Target: vs[i+1].ID})
	}
	dir := t.TempDir()
	if err := WriteLogicalGraph(epgm.GraphFromSlices(env, "G", vs, es), dir); err != nil {
		t.Fatal(err)
	}
	g, err := ReadLogicalGraph(env, dir)
	if err != nil {
		t.Fatal(err)
	}
	shared := map[string]*byte{}
	check := func(kind, label string) {
		at := unsafe.StringData(label)
		if first, ok := shared[label]; !ok {
			shared[label] = at
		} else if first != at {
			t.Errorf("two %s of label %q hold two strings", kind, label)
		}
	}
	for _, v := range g.Vertices.Collect() {
		check("vertices", v.Label)
	}
	for _, e := range g.Edges.Collect() {
		check("edges", e.Label)
	}
	if len(shared) != 3 || shared["Person"] == nil || shared["Ta;g"] == nil || shared["kno|ws"] == nil {
		t.Fatalf("labels read back: %v", shared)
	}
}

func TestEscapeRoundTrip(t *testing.T) {
	cases := []string{"", "plain", `semi;colon`, `pi|pe`, `com,ma`, "new\nline", `back\slash`, `all;|,\n\`}
	for _, c := range cases {
		got, err := unescape(escape(c))
		if err != nil {
			t.Fatalf("%q: %v", c, err)
		}
		if got != c {
			t.Fatalf("round trip %q -> %q", c, got)
		}
	}
}

func TestUnescapeErrors(t *testing.T) {
	for _, s := range []string{`dangling\`, `bad\q`} {
		if _, err := unescape(s); err == nil {
			t.Errorf("unescape(%q): expected error", s)
		}
	}
}

func TestReadErrors(t *testing.T) {
	env := dataflow.NewEnv(dataflow.DefaultConfig(1))
	if _, err := ReadLogicalGraph(env, t.TempDir()); err == nil {
		t.Fatal("missing files should error")
	}
	// Corrupt vertex line.
	dir := t.TempDir()
	g := sample(1)
	if err := WriteLogicalGraph(g, dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, VerticesFile), []byte("not;enough\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadLogicalGraph(env, dir); err == nil {
		t.Fatal("malformed vertex line should error")
	}
}

func TestSplitUnescaped(t *testing.T) {
	parts := splitUnescaped(`a;b\;c;d`, ';')
	if len(parts) != 3 || parts[1] != `b\;c` {
		t.Fatalf("parts=%v", parts)
	}
}
