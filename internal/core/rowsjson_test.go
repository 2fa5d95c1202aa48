package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"gradoop/internal/dataflow"
	"gradoop/internal/epgm"
	"gradoop/internal/planner"
)

// boxedValue is the reference the appender replaced: the value boxed for
// encoding/json, int64s beyond ±2^53 stringified.
func boxedValue(v epgm.PropertyValue) any {
	switch v.Type() {
	case epgm.TypeBool:
		return v.Bool()
	case epgm.TypeInt64:
		n := v.Int()
		if n > 1<<53 || n < -(1<<53) {
			return strconv.FormatInt(n, 10)
		}
		return n
	case epgm.TypeFloat64:
		return v.Float()
	case epgm.TypeString:
		return v.Str()
	default:
		return nil
	}
}

// marshalNoHTML is encoding/json as the server configures it.
func marshalNoHTML(t testing.TB, v any) ([]byte, error) {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n")), nil
}

// checkAppendJSONValue holds the appender, from the value and from its
// propData encoding, to encoding/json's bytes; where encoding/json refuses
// (NaN, ±Inf) the appender must write null.
func checkAppendJSONValue(t *testing.T, v epgm.PropertyValue) {
	t.Helper()
	want, err := marshalNoHTML(t, boxedValue(v))
	if err != nil {
		want = []byte("null")
	}
	prefix := []byte("x")
	if got := AppendJSONValue(prefix, v); !bytes.Equal(got[1:], want) || got[0] != 'x' {
		t.Fatalf("AppendJSONValue(%v %q) = %s, encoding/json %s", v.Type(), v.String(), got[1:], want)
	}
	if got := appendJSONEncoded(nil, v.Encode(nil)); !bytes.Equal(got, want) {
		t.Fatalf("appendJSONEncoded(%v %q) = %s, encoding/json %s", v.Type(), v.String(), got, want)
	}
}

// FuzzAppendJSONValue is the differential test of the cell appender against
// encoding/json, one input driving every PropertyValue type.
func FuzzAppendJSONValue(f *testing.F) {
	for _, s := range []string{
		"", "plain", "quote\" and \\ backslash", "\x00\x01\x1f control", "\b\f\n\r\t", "del \x7f",
		"<html> & 'apostrophe'", "invalid \xff\xfe utf8", "truncated rune \xe2\x80", "\xed\xa0\x80 surrogate",
		"line \u2028 and paragraph \u2029 separators", "snow \u2603 and \U0001F600", "\ufffd already replaced",
	} {
		f.Add(s, int64(0), uint64(0))
	}
	for _, n := range []int64{0, -1, 1 << 53, 1<<53 + 1, -(1 << 53), -(1 << 53) - 1, math.MaxInt64, math.MinInt64} {
		f.Add("", n, uint64(n))
	}
	for _, x := range []float64{0, math.Copysign(0, -1), 1, -1.5, 1e-6, 9.99e-7, 1e-7, 1e21, 9.99e20, 1e-9, 1e+100,
		5e-324, 2.2250738585072014e-308, math.MaxFloat64, 100, 0.1, 1 << 53, math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add("", int64(0), math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, s string, n int64, bits uint64) {
		checkAppendJSONValue(t, epgm.Null)
		checkAppendJSONValue(t, epgm.PVBool(n&1 == 1))
		checkAppendJSONValue(t, epgm.PVInt(n))
		checkAppendJSONValue(t, epgm.PVFloat(math.Float64frombits(bits)))
		checkAppendJSONValue(t, epgm.PVString(s))
	})
}

// builtBody is the oracle of the rows array: the table boxed into any values,
// row by row, and marshalled by encoding/json - the body the server once
// built before it sent it.
func builtBody(t testing.TB, res *Result) []byte {
	t.Helper()
	boxed := [][]any{}
	for _, row := range res.Rows() {
		cells := make([]any, len(row.Values))
		for i, v := range row.Values {
			cells[i] = boxedValue(v)
		}
		boxed = append(boxed, cells)
	}
	want, err := marshalNoHTML(t, boxed)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// pieces is a reader's end of WriteRowsJSON: what arrived, write by write.
type pieces struct {
	bytes.Buffer
	sizes []int
}

func (p *pieces) Write(b []byte) (int, error) {
	p.sizes = append(p.sizes, len(b))
	return p.Buffer.Write(b)
}

// checkStreamed holds what a reader receives to the built body, and the
// pieces to the contract the server frames by: all but the last are at least
// a chunk long.
func checkStreamed(t *testing.T, name string, res *Result) *pieces {
	t.Helper()
	want := builtBody(t, res)
	var got pieces
	n, err := res.WriteRowsJSON(&got)
	if err != nil || n != int64(len(want)) {
		t.Errorf("%s: wrote %d bytes, err %v; the built body has %d", name, n, err, len(want))
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("%s\n got %.300s\nwant %.300s", name, got.Bytes(), want)
	}
	for i, size := range got.sizes[:len(got.sizes)-1] {
		if size < RowsChunk {
			t.Errorf("%s: piece %d of %d has %d bytes, less than a chunk", name, i, len(got.sizes), size)
		}
	}
	return &got
}

// TestStreamedBodyIsTheBuiltBody: for every shape of RETURN clause, at one
// partition and at several, and for bodies around the chunk boundary, the
// bytes a reader receives are what encoding/json makes of Rows.
func TestStreamedBodyIsTheBuiltBody(t *testing.T) {
	queries := []string{
		`MATCH (p:Person)-[:likes]->(m:Movie) RETURN p.name, m.title, m.year, m.rating`,
		`MATCH (p:Person)-[l:likes]->(m:Movie) RETURN *`,
		`MATCH (p:Person)-[l:likes]->(m:Movie) RETURN p, l, m.title AS title, p.nick`,
		`MATCH (p:Person)-[:likes]->(m:Movie) RETURN m.year + 1, p.name + '!', 7, m.rating / 0`,
		`MATCH (p:Person)-[e:likes*1..2]->(m) RETURN p.name, e`,
		`MATCH (p:Person) OPTIONAL MATCH (p)-[l:likes]->(m:Movie) WHERE m.year > 1990 RETURN p.name, l, m, m.title`,
		`MATCH (p:Person)-[:likes]->(m:Movie) RETURN m.title, count(*), min(p.age), avg(m.rating), sum(p.age)`,
		`MATCH (p:Person)-[:likes]->(m:Movie) RETURN DISTINCT m.title`,
		`MATCH (p:Person)-[:likes]->(m:Movie) RETURN p.name, m.title ORDER BY m.year DESC, p.name SKIP 1 LIMIT 3`,
		`MATCH (p:Person)-[:likes]->(m:Movie) RETURN p.name, m.title SKIP 2 LIMIT 3`,
		`MATCH (p:Person)-[:likes]->(m:Movie) RETURN p.name SKIP 100`,
		`MATCH (p:Person)-[:likes]->(m:Movie) RETURN p.name LIMIT 0`,
		`MATCH (p:Person)-[:likes]->(m:Movie) WHERE m.year > 3000 RETURN p.name, m.title`,
	}
	for _, workers := range []int{1, 4} {
		g := moviesGraph(workers)
		for _, q := range queries {
			res, err := Execute(g, q, Config{})
			if err != nil {
				t.Fatalf("Execute(%q): %v", q, err)
			}
			checkStreamed(t, fmt.Sprintf("workers=%d %s", workers, q), res)
		}
	}

	// Bodies of an exact length: 40 rows, the last one's string sized so.
	sized := func(total int) *Result {
		last := 0
		build := func() *Result {
			return benchRowsResult(t, 40, func(i int) string {
				if i == 39 {
					return strings.Repeat("x", last)
				}
				return strings.Repeat("y", 1000)
			})
		}
		last = total - len(builtBody(t, build()))
		res := build()
		if n := len(builtBody(t, res)); n != total {
			t.Fatalf("sized(%d) built %d bytes", total, n)
		}
		return res
	}
	for _, c := range []struct{ total, pieces int }{
		{RowsChunk - 1, 1}, // never filled the chunk: one piece, shorter than one
		{RowsChunk, 1},     // filled by the closing bracket: one piece of a chunk
		{RowsChunk + 1, 2}, // filled by the last row: the bracket travels alone
		{3*RowsChunk + 17, 2},
	} {
		got := checkStreamed(t, fmt.Sprintf("%d bytes", c.total), sized(c.total))
		if len(got.sizes) != c.pieces {
			t.Errorf("%d bytes arrived in pieces of %v, want %d pieces", c.total, got.sizes, c.pieces)
		}
	}

	// One row longer than a chunk among short ones, then rows in front of an
	// aggregation, a sort and a window, which reach the sink as values.
	long := benchRowsResult(t, 3000, func(i int) string {
		if i == 1 {
			return strings.Repeat("z", RowsChunk+RowsChunk/2)
		}
		return "Alice \"Al\" Liddell"
	})
	if got := checkStreamed(t, "a row longer than a chunk", long); len(got.sizes) < 3 {
		t.Errorf("a long row and 3000 short ones arrived in pieces of %v", got.sizes)
	}
	for _, ret := range []string{
		`RETURN a.birthday, count(*), min(a.score) ORDER BY a.birthday`,
		`RETURN a, a.firstName ORDER BY a.score DESC SKIP 7 LIMIT 2900`,
		`RETURN a, a.firstName, a.nick SKIP 7 LIMIT 2900`,
	} {
		res, err := Execute(long.Graph, `MATCH (a:Person) `+ret, Config{})
		if err != nil {
			t.Fatal(err)
		}
		checkStreamed(t, ret, res)
	}
}

// TestResponseBytesAreBounded: what writing a result allocates does not
// depend on how long the result is - the array is never built, and the chunk
// it passes through is kept for the next call. Ten times the rows cost less than a chunk
// more.
func TestResponseBytesAreBounded(t *testing.T) {
	cost := func(rows int) int64 {
		res := benchRowsResult(t, rows, func(int) string { return "Alice \"Al\" Liddell" })
		least := int64(math.MaxInt64)
		var before, after runtime.MemStats
		for range 2 { // the first call may be the one that makes the spare
			runtime.ReadMemStats(&before)
			n, err := res.WriteRowsJSON(io.Discard)
			runtime.ReadMemStats(&after)
			if err != nil || n < int64(rows)*40 {
				t.Fatalf("%d rows: wrote %d bytes, err %v", rows, n, err)
			}
			least = min(least, int64(after.TotalAlloc-before.TotalAlloc))
		}
		return least
	}
	small, big := cost(5_000), cost(50_000)
	t.Logf("allocated writing 5 000 rows: %d B, 50 000 rows: %d B", small, big)
	if big-small >= RowsChunk {
		t.Fatalf("50 000 rows allocate %d B, 5 000 rows %d B: the difference is a chunk or more", big, small)
	}
}

// failingWriter takes writes until its budget of them is spent.
type failingWriter struct{ ok, calls int }

var errClientGone = errors.New("client gone")

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.calls++; w.calls > w.ok {
		return 0, errClientGone
	}
	return len(p), nil
}

// TestClientGoneStopsTheWalk: the first write error ends the walk where it
// is - the writer is not called again, and no further row is rendered.
func TestClientGoneStopsTheWalk(t *testing.T) {
	const rows = 20_000 // about 1 MiB: sixteen pieces to a patient reader
	res := benchRowsResult(t, rows, func(int) string { return "Alice \"Al\" Liddell" })

	w := &failingWriter{ok: 1}
	n, err := res.WriteRowsJSON(w)
	if !errors.Is(err, errClientGone) || w.calls != 2 {
		t.Fatalf("err %v after %d writes, want the writer's error after 2", err, w.calls)
	}
	if n < RowsChunk || n > RowsChunk+chunkSlack {
		t.Fatalf("%d bytes taken, want the one piece that was", n)
	}

	w = &failingWriter{ok: 1}
	sink := &jsonSink{w: w}
	res.walk(sink)
	if perPiece := rows / 16; sink.rows < perPiece || sink.rows > 3*perPiece {
		t.Fatalf("the walk rendered %d of %d rows for two pieces of about %d", sink.rows, rows, perPiece)
	}
	if w.calls != 2 || sink.err == nil {
		t.Fatalf("%d writes, err %v", w.calls, sink.err)
	}

	for _, ordered := range []string{`ORDER BY a.score`, ``} {
		res, err := Execute(res.Graph, `MATCH (a:Person) RETURN a, a.firstName, a.score `+ordered, Config{})
		if err != nil {
			t.Fatal(err)
		}
		w = &failingWriter{ok: 0}
		if _, err := res.WriteRowsJSON(w); !errors.Is(err, errClientGone) || w.calls != 1 {
			t.Fatalf("%q: err %v after %d writes", ordered, err, w.calls)
		}
	}
}

// benchRowsResult executes a scan whose rows carry an id, a string, an int,
// a float and a null cell. With one partition the rows come in id order.
func benchRowsResult(t testing.TB, n int, firstName func(i int) string) *Result {
	return benchRowsOver(t, n, firstName, false)
}

// benchRowsOver is benchRowsResult, over a store of the graph if stored: then
// the rows carry the id alone and the result reads the four properties from
// the store.
func benchRowsOver(t testing.TB, n int, firstName func(i int) string, stored bool) *Result {
	t.Helper()
	env := dataflow.NewEnv(dataflow.DefaultConfig(1))
	vs := make([]epgm.Vertex, n)
	for i := range vs {
		vs[i] = epgm.Vertex{ID: epgm.ID(1 + i), Label: "Person", Properties: epgm.Properties{}.
			Set("firstName", epgm.PVString(firstName(i))).
			Set("birthday", epgm.PVInt(int64(1980+i%30))).
			Set("score", epgm.PVFloat(float64(i)/7))}
	}
	g := epgm.GraphFromSlices(env, "bench", vs, nil)
	var cfg Config
	if stored {
		cfg.Access = planner.IndexedAccess{Index: epgm.BuildIndex(g)}
	}
	res, err := Execute(g, `MATCH (a:Person) RETURN a, a.firstName, a.birthday, a.score, a.nick`, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestStoredCellsAreCarriedCells: the body of rows whose cells read the store
// is, byte for byte, the body of rows that carry the same properties.
func TestStoredCellsAreCarriedCells(t *testing.T) {
	name := func(i int) string { return fmt.Sprintf("Alice \"%d\"\n", i) }
	carried, stored := benchRowsOver(t, 3000, name, false), benchRowsOver(t, 3000, name, true)
	if stored.store == nil || stored.Meta.PropColumns() != 0 {
		t.Fatalf("the rows carry %d properties; the result reads store %p", stored.Meta.PropColumns(), stored.store)
	}
	var got bytes.Buffer
	if _, err := stored.WriteRowsJSON(&got); err != nil {
		t.Fatal(err)
	}
	if want := builtBody(t, carried); !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("over the store %d bytes, carried %d", got.Len(), len(want))
	}
	checkStreamed(t, "over the store", stored)
}

// BenchmarkRowJSON is the output path's kernel of make alloc-guard: the
// streaming writer over embedding-shaped rows with id, string, int, float
// and null cells, through its recycled chunk. What is left is the compiled
// RETURN plan, a handful of allocations per call.
func BenchmarkRowJSON(b *testing.B) {
	const rows = 20_000
	res := benchRowsResult(b, rows, func(int) string { return "Alice \"Al\" Liddell" })
	size, _ := res.WriteRowsJSON(io.Discard)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n, err := res.WriteRowsJSON(io.Discard); n != size || err != nil {
			b.Fatalf("wrote %d of %d bytes: %v", n, size, err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.SetBytes(size)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N)/rows, "allocs/row")
}

// BenchmarkRowJSONStored is BenchmarkRowJSON over a store: every property
// cell reads the store by the row's id (Positions.Of) and appends the value,
// which must cost no object a row either.
func BenchmarkRowJSONStored(b *testing.B) {
	const rows = 20_000
	res := benchRowsOver(b, rows, func(int) string { return "Alice \"Al\" Liddell" }, true)
	size, _ := res.WriteRowsJSON(io.Discard)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n, err := res.WriteRowsJSON(io.Discard); n != size || err != nil {
			b.Fatalf("wrote %d of %d bytes: %v", n, size, err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.SetBytes(size)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N)/rows, "allocs/row")
}
