package csv

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
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

// TestGraphIDsAreInterned: the elements of one graph membership field share
// one set with no room to grow, so that IDSet.Add on one element's set - the
// set itself or a clone - leaves every other element's as it was.
func TestGraphIDsAreInterned(t *testing.T) {
	env := dataflow.NewEnv(dataflow.DefaultConfig(1))
	g1, g2 := epgm.NewID(), epgm.NewID()
	memberships := []epgm.IDSet{epgm.NewIDSet(g1), epgm.NewIDSet(g1, g2), epgm.NewIDSet(g1), epgm.NewIDSet(g1, g2), nil, epgm.NewIDSet(g1)}
	var vs []epgm.Vertex
	for _, m := range memberships {
		vs = append(vs, epgm.Vertex{ID: epgm.NewID(), Label: "Person", GraphIDs: m})
	}
	es := []epgm.Edge{{ID: epgm.NewID(), Label: "knows", Source: vs[0].ID, Target: vs[1].ID, GraphIDs: epgm.NewIDSet(g1, g2)}}
	dir := t.TempDir()
	if err := WriteLogicalGraph(epgm.GraphFromSlices(env, "G", vs, es), dir); err != nil {
		t.Fatal(err)
	}
	g, err := ReadLogicalGraph(env, dir)
	if err != nil {
		t.Fatal(err)
	}
	read := g.Vertices.Collect()
	sort.Slice(read, func(i, j int) bool { return read[i].ID < read[j].ID })
	edge := g.Edges.Collect()[0]
	arrays := map[string]*epgm.ID{}
	for i, v := range append(read, epgm.Vertex{GraphIDs: edge.GraphIDs}) {
		if cap(v.GraphIDs) != len(v.GraphIDs) {
			t.Errorf("element %d: graph ids %v have room to grow (cap %d)", i, v.GraphIDs, cap(v.GraphIDs))
		}
		if len(v.GraphIDs) == 0 {
			continue
		}
		key := fmt.Sprint(v.GraphIDs)
		if first, ok := arrays[key]; !ok {
			arrays[key] = &v.GraphIDs[0]
		} else if first != &v.GraphIDs[0] {
			t.Errorf("element %d: graph ids %v are an array of their own", i, v.GraphIDs)
		}
	}
	if len(arrays) != 3 { // each membership with the graph's own id added
		t.Fatalf("distinct memberships read back: %v, want 3", arrays)
	}
	was := make([]string, len(read))
	for i, v := range read {
		was[i] = fmt.Sprint(v.GraphIDs)
	}
	extra := epgm.NewID()
	_ = read[0].GraphIDs.Add(extra)
	_ = read[1].GraphIDs.Clone().Add(extra)
	for i, v := range read {
		if fmt.Sprint(v.GraphIDs) != was[i] {
			t.Errorf("vertex %d: graph ids %v after another element's Add", i, v.GraphIDs)
		}
	}
}

// TestEscapesRoundTripInLabelsAndValues: every character the format escapes
// reads back in a label, a property key and a string value, and a value of
// nothing but escapes is still a value of its own beside its neighbours.
func TestEscapesRoundTripInLabelsAndValues(t *testing.T) {
	env := dataflow.NewEnv(dataflow.DefaultConfig(2))
	tricky := []string{"a;b", "a|b", `a\b`, "a\nb", "a,b", ";|\\\n,", `\e`, "", "plain"}
	var vs []epgm.Vertex
	for i, s := range tricky {
		vs = append(vs, epgm.Vertex{ID: epgm.NewID(), Label: "L" + s, Properties: epgm.Properties{}.
			Set("k"+s, epgm.PVString(s)).Set("n", epgm.PVInt(int64(i))).Set("v", epgm.PVString(s+s))})
	}
	es := []epgm.Edge{{ID: epgm.NewID(), Label: "E" + tricky[5], Source: vs[0].ID, Target: vs[1].ID,
		Properties: epgm.Properties{}.Set("w", epgm.PVString(tricky[5])).Set("x", epgm.PVFloat(0.5))}}
	dir := t.TempDir()
	if err := WriteLogicalGraph(epgm.GraphFromSlices(env, "G;|", vs, es), dir); err != nil {
		t.Fatal(err)
	}
	g, err := ReadLogicalGraph(env, dir)
	if err != nil {
		t.Fatal(err)
	}
	if g.Head.Label != "G;|" {
		t.Errorf("head label %q", g.Head.Label)
	}
	byID := map[epgm.ID]epgm.Vertex{}
	for _, v := range g.Vertices.Collect() {
		byID[v.ID] = v
	}
	for i, s := range tricky {
		v := byID[vs[i].ID]
		if v.Label != "L"+s || v.Properties.Get("k"+s).Str() != s || v.Properties.Get("v").Str() != s+s ||
			v.Properties.Get("n").Int() != int64(i) || len(v.Properties) != 3 || cap(v.Properties) != 3 {
			t.Errorf("%q read back as %v", s, v)
		}
	}
	e := g.Edges.Collect()[0]
	if e.Label != "E"+tricky[5] || e.Properties.Get("w").Str() != tricky[5] || e.Properties.Get("x").Float() != 0.5 {
		t.Errorf("edge read back as %v", e)
	}
}

// TestMalformedLinesNameTheirLine: a line the reader cannot read is an error
// that names its file and line - blank lines and a CRLF line end counted.
func TestMalformedLinesNameTheirLine(t *testing.T) {
	env := dataflow.NewEnv(dataflow.DefaultConfig(1))
	dir := t.TempDir()
	if err := WriteLogicalGraph(sample(1), dir); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(filepath.Join(dir, VerticesFile))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		file, line, want string
	}{
		{VerticesFile, "not;enough", "malformed vertex line"},
		{VerticesFile, "x;[];Person;", `bad id "x"`},
		{VerticesFile, "1;[1,y];Person;", `bad id "y"`},
		{VerticesFile, `1;[];Per\qson;`, `unknown escape \q`},
		{VerticesFile, `1;[];Person;a|thirty`, `label Person key age: csv: bad long "thirty"`},
		{VerticesFile, `1;[];Person;a|1|x`, `label Person key score: csv: bad double "x"`},
		{VerticesFile, `1;[];Person;a|1|1|yes`, `label Person key active: csv: bad boolean "yes"`},
		{VerticesFile, `1;[];Person;a\`, `label Person key name: csv: dangling escape`},
		{EdgesFile, "1;[];2;3;knows", "malformed edge line"},
		{EdgesFile, "1;[];2;z;knows;", `bad id "z"`},
		{GraphsFile, "1;G", "malformed graph line"},
	} {
		bad := t.TempDir()
		for _, f := range []string{MetadataFile, GraphsFile, VerticesFile, EdgesFile} {
			b, err := os.ReadFile(filepath.Join(dir, f))
			if err != nil {
				t.Fatal(err)
			}
			if f == tc.file {
				b = []byte("\r\n" + tc.line + "\r\n") // the bad line is the second
				if f == VerticesFile {
					b = append(append([]byte{}, good...), "\n"+tc.line+"\n"...)
				}
			}
			if err := os.WriteFile(filepath.Join(bad, f), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		at := 2
		if tc.file == VerticesFile {
			at = strings.Count(string(good), "\n") + 2
		}
		_, err := ReadLogicalGraph(env, bad)
		if err == nil {
			t.Errorf("%s line %q: read without error", tc.file, tc.line)
			continue
		}
		prefix := filepath.Join(bad, tc.file) + ":" + strconv.Itoa(at) + ": "
		if !strings.HasPrefix(err.Error(), prefix) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s line %q: error %q, want %q... %q", tc.file, tc.line, err, prefix, tc.want)
		}
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
	parts := splitUnescaped(nil, `a;b\;c;d`, ';')
	if len(parts) != 3 || parts[1] != `b\;c` {
		t.Fatalf("parts=%v", parts)
	}
}

// BenchmarkReadLogicalGraph reads a dataset of 20 000 vertices and 60 000
// edges shaped like the LDBC generator's - a membership field each, persons
// with four properties, three of them strings, and edges with one long - and
// reports heap objects and bytes per element read. A reader that allocates per
// field or grows its arrays by append shows as several objects an element.
func BenchmarkReadLogicalGraph(b *testing.B) {
	env := dataflow.NewEnv(dataflow.DefaultConfig(4))
	var vs []epgm.Vertex
	head := epgm.NewID()
	member := epgm.NewIDSet(head)
	for i := 0; i < 20000; i++ {
		vs = append(vs, epgm.Vertex{ID: epgm.NewID(), Label: "Person", GraphIDs: member, Properties: epgm.Properties{}.
			Set("firstName", epgm.PVString("name"+strconv.Itoa(i%300))).Set("lastName", epgm.PVString("last"+strconv.Itoa(i%700))).
			Set("gender", epgm.PVString([]string{"male", "female"}[i%2])).Set("birthday", epgm.PVInt(int64(1950+i%55)))})
	}
	var es []epgm.Edge
	for i := 0; i < 60000; i++ {
		es = append(es, epgm.Edge{ID: epgm.NewID(), Label: "knows", GraphIDs: member, Source: vs[i%len(vs)].ID,
			Target: vs[(i*7+1)%len(vs)].ID, Properties: epgm.Properties{}.Set("since", epgm.PVInt(int64(2005+i%15)))})
	}
	dir := b.TempDir()
	if err := WriteLogicalGraph(epgm.GraphFromSlices(env, "G", vs, es), dir); err != nil {
		b.Fatal(err)
	}
	elements := float64(len(vs) + len(es))
	var before, after runtime.MemStats
	b.ResetTimer()
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		if _, err := ReadLogicalGraph(env, dir); err != nil {
			b.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N)/elements, "allocs/elem")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/elements, "B/elem")
}
