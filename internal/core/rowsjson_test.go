package core

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"gradoop/internal/dataflow"
	"gradoop/internal/epgm"
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

// TestAppendRowsJSONMatchesRows: for every shape of RETURN clause the byte
// sink writes what encoding/json makes of Rows, at one partition and at
// several.
func TestAppendRowsJSONMatchesRows(t *testing.T) {
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
			if got := res.AppendRowsJSON(nil); !bytes.Equal(got, want) {
				t.Errorf("workers=%d %s\n got %s\nwant %s", workers, q, got, want)
			}
		}
	}
}

// TestAppendRowsJSONCapacityBounded: the buffer is never sized from what
// some rows took, so rows that are far larger than the rest - big strings on
// the lowest ids, which a plain RETURN walks first - leave its capacity
// within a constant factor of its length, as do uniform rows.
func TestAppendRowsJSONCapacityBounded(t *testing.T) {
	skewed := func(i int) string {
		if i < 64 {
			return strings.Repeat("x", 16<<10)
		}
		return "y"
	}
	uniform := func(int) string { return "Alice \"Al\" Liddell" }
	for name, firstName := range map[string]func(int) string{"skewed": skewed, "uniform": uniform} {
		body := benchRowsResult(t, 5000, firstName).AppendRowsJSON(nil)
		if rows := bytes.Count(body, []byte("],[")) + 1; rows != 5000 {
			t.Fatalf("%s: rows=%d want 5000", name, rows)
		}
		if cap(body) > 2*len(body) {
			t.Fatalf("%s: cap=%d for len=%d", name, cap(body), len(body))
		}
	}
}

// benchRowsResult executes a scan whose rows carry an id, a string, an int,
// a float and a null cell. With one partition the rows come in id order.
func benchRowsResult(t testing.TB, n int, firstName func(i int) string) *Result {
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
	res, err := Execute(g, `MATCH (a:Person) RETURN a, a.firstName, a.birthday, a.score, a.nick`, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// BenchmarkRowJSON is the output path's kernel of make alloc-guard: the
// streaming writer over embedding-shaped rows with id, string, int, float
// and null cells, into a buffer that already has the room. What is left is
// the compiled RETURN plan, a handful of allocations per call.
func BenchmarkRowJSON(b *testing.B) {
	const rows = 20_000
	res := benchRowsResult(b, rows, func(int) string { return "Alice \"Al\" Liddell" })
	buf := res.AppendRowsJSON(nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = res.AppendRowsJSON(buf[:0])
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.SetBytes(int64(len(buf)))
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N)/rows, "allocs/row")
}
