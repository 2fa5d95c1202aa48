package session

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"gradoop/internal/core"
	"gradoop/internal/cypher"
	"gradoop/internal/dataflow"
	"gradoop/internal/epgm"
)

// namesGraph is n persons whose names are nameLen bytes long: `MATCH
// (a:Person) RETURN a.name` answers about n x (nameLen+5) bytes of rows.
func namesGraph(n, nameLen int) *epgm.LogicalGraph {
	vs := make([]epgm.Vertex, n)
	for i := range vs {
		name := fmt.Sprintf("%06d%s", i, strings.Repeat("n", nameLen-6))
		vs[i] = epgm.Vertex{ID: epgm.NewID(), Label: "Person",
			Properties: epgm.Properties{}.Set("name", epgm.PVString(name))}
	}
	return epgm.GraphFromSlices(dataflow.NewEnv(dataflow.DefaultConfig(2)), "names", vs, nil)
}

const namesQuery = `MATCH (a:Person) RETURN a.name`

// stallingWriter takes ok writes and fails every one after.
type stallingWriter struct{ ok, calls int }

func (w *stallingWriter) Write(p []byte) (int, error) {
	if w.calls++; w.calls > w.ok {
		return 0, errors.New("client gone")
	}
	return len(p), nil
}

// TestUndrainedResponseCachesNothing: the cache entry is made of what went
// out. A response nobody wrote, and one whose reader went away half way,
// leave the cache as it was; the one written in full is the entry, and a hit
// hands out the same bytes.
func TestUndrainedResponseCachesNothing(t *testing.T) {
	s := New(namesGraph(4000, 60), Options{}) // 260 KB of rows: four pieces
	req := Request{Query: namesQuery}
	empty := func(step string) {
		t.Helper()
		if used, n := s.results.usage(); used != 0 || n != 0 {
			t.Fatalf("%s left %d B in %d entries", step, used, n)
		}
	}

	if _, err := s.Execute(req); err != nil {
		t.Fatal(err)
	}
	empty("a response nobody wrote")

	r, err := s.Execute(req)
	if err != nil || r.FromResultCache {
		t.Fatalf("second request: hit=%v err=%v", r != nil && r.FromResultCache, err)
	}
	w := &stallingWriter{ok: 1}
	if n, err := r.WriteRows(w); err == nil || w.calls != 2 || n < core.RowsChunk || n >= 2*core.RowsChunk {
		t.Fatalf("a writer failing on its second write: %d bytes, %d writes, err %v", n, w.calls, err)
	}
	empty("a response whose reader went away")

	r, err = s.Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	if r.RowsLen != 0 {
		t.Fatal("an execution knows the length of rows it has not written")
	}
	rows := rowsOf(t, r)
	if _, n := s.results.usage(); n != 1 {
		t.Fatalf("a response written in full left %d entries", n)
	}
	again := rowsOf(t, r) // writes, and does not put a second time
	hit, err := s.Execute(req)
	if err != nil || !hit.FromResultCache {
		t.Fatalf("fourth request: %+v, %v", hit, err)
	}
	if hit.RowsLen != len(rows) {
		t.Fatalf("hit announces %d bytes, the miss wrote %d", hit.RowsLen, len(rows))
	}
	if got := rowsOf(t, hit); !bytes.Equal(got, rows) || !bytes.Equal(again, rows) {
		t.Fatal("miss, miss written again and hit differ")
	}
}

// TestCacheChargeIsExact: an entry is charged, to the cache's budget and to
// the memory broker, the bytes it holds and no slack: key, column names and
// rows at their length - whether the rows arrived as one piece or as several.
func TestCacheChargeIsExact(t *testing.T) {
	s := New(namesGraph(4000, 60), Options{MemoryBudget: 64 << 20})
	var want int64
	for _, q := range []string{namesQuery, namesQuery + ` LIMIT 3`, `MATCH (a:Person) RETURN a.name AS who, a SKIP 10 LIMIT 2000`} {
		r, err := s.Execute(Request{Query: q})
		if err != nil {
			t.Fatal(err)
		}
		rows := rowsOf(t, r)
		want += int64(len(CanonicalQuery(q)) + len("\x00") + len(rows))
		for _, c := range r.Columns {
			want += int64(len(c))
		}
		e, ok := s.results.get(CanonicalQuery(q)+"\x00", 1)
		if !ok || !bytes.Equal(bytes.Join(e.rows, nil), rows) {
			t.Fatalf("%s: the entry does not hold the %d bytes the reader got", q, len(rows))
		}
		for _, p := range e.rows {
			if len(p) != cap(p) {
				t.Fatalf("%s: a piece of %d bytes in a buffer of %d", q, len(p), cap(p))
			}
		}
	}
	if used, n := s.results.usage(); used != want || n != 3 {
		t.Fatalf("cache charges %d B for %d entries that hold %d B", used, n, want)
	}
	if got := s.Broker().Reserved(); got != want {
		t.Fatalf("broker holds %d B for a cache of %d B", got, want)
	}
}

// TestBodyOverTheBudgetStreamsAndIsNotCached: a cacheable result larger than
// the whole cache goes out in full, and the copy the cache was collecting is
// dropped the moment it cannot fit - not at the end.
func TestBodyOverTheBudgetStreamsAndIsNotCached(t *testing.T) {
	s := New(namesGraph(4000, 60), Options{ResultCacheBytes: 100 << 10})
	r, err := s.Execute(Request{Query: namesQuery})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := r.WriteRows(io.Discard); err != nil || n < 250<<10 {
		t.Fatalf("wrote %d bytes, err %v", n, err)
	}
	if used, entries := s.results.usage(); used != 0 || entries != 0 {
		t.Fatalf("a body over the budget left %d B in %d entries", used, entries)
	}
	tee := teeWriter{w: io.Discard, budget: 100}
	for range 3 {
		_, _ = tee.Write(make([]byte, 60))
	}
	if tee.budget >= 0 || tee.parts != nil {
		t.Fatalf("a tee past its budget keeps %d pieces", len(tee.parts))
	}
}

// TestMissingParamIsTheRequestsFault: the classification follows the error's
// type, not its text - a failure that happens to talk about a parameter is a
// failure, and a missing binding is invalid however it is wrapped or worded.
func TestMissingParamIsTheRequestsFault(t *testing.T) {
	for _, c := range []struct {
		err  error
		want exit
	}{
		{&cypher.MissingParamError{Name: "n"}, exitInvalid},
		{fmt.Errorf("bind: %w", &cypher.MissingParamError{Name: "n"}), exitInvalid},
		{errors.New("worker w2: frame carried no parameter $n block"), exitFailed},
		{errors.New("cypher: missing value for parameter $n"), exitFailed}, // the words without the type
	} {
		if got, _ := exitOf(c.err, nil); got != c.want {
			t.Errorf("%v: exit %d, want %d", c.err, got, c.want)
		}
	}
	if msg := (&cypher.MissingParamError{Name: "n"}).Error(); msg != "cypher: missing value for parameter $n" {
		t.Errorf("the message clients see changed: %q", msg)
	}
}
