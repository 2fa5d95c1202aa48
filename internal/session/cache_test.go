package session

import (
	"bytes"
	"testing"

	"gradoop/internal/epgm"
	"gradoop/internal/govern"
)

// TestCanonicalQuery: whitespace collapses outside quoted regions only;
// string literals and backquoted identifiers survive byte for byte.
func TestCanonicalQuery(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", ""},
		{"  \t\n ", ""},
		{"MATCH   (a)\n\tRETURN  a", "MATCH (a) RETURN a"},
		// Whitespace inside literals is significant.
		{"WHERE a.name = 'John  Smith'", "WHERE a.name = 'John  Smith'"},
		{`WHERE a.name = "Uni  Leipzig"  RETURN a`, `WHERE a.name = "Uni  Leipzig" RETURN a`},
		{"MATCH (a:`My  Label`)   RETURN a", "MATCH (a:`My  Label`) RETURN a"},
		// Escaped quotes do not close the literal early.
		{`WHERE a.name = 'it\'s  two  spaces'`, `WHERE a.name = 'it\'s  two  spaces'`},
		{`WHERE a.name = "a\\"  RETURN  a`, `WHERE a.name = "a\\" RETURN a`},
		// Adjacent tokens around a literal keep exactly one separator.
		{"RETURN  'x'  ,  'y  z'", "RETURN 'x' , 'y  z'"},
		// Unterminated literal: tail kept verbatim for the parser to reject.
		{"WHERE a.name = 'oops  ", "WHERE a.name = 'oops  "},
	}
	for _, c := range cases {
		if got := CanonicalQuery(c.in); got != c.want {
			t.Errorf("CanonicalQuery(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	// Queries differing only inside a literal must canonicalize differently.
	a := CanonicalQuery("MATCH (v) WHERE v.name = 'John  Smith' RETURN v")
	b := CanonicalQuery("MATCH (v) WHERE v.name = 'John Smith' RETURN v")
	if a == b {
		t.Fatal("distinct literals collided after canonicalization")
	}
}

// TestParamsKeyCollisionProof: bindings must never share a key — not across
// types, and not via NUL bytes forging pair boundaries (NULs in string
// params are reachable over HTTP via JSON unicode escapes).
func TestParamsKeyCollisionProof(t *testing.T) {
	pv := func(s string) epgm.PropertyValue { return epgm.PVString(s) }
	cases := []struct {
		name string
		a, b map[string]epgm.PropertyValue
	}{
		{"type distinction",
			map[string]epgm.PropertyValue{"x": epgm.PVInt(1)},
			map[string]epgm.PropertyValue{"x": epgm.PVString("1")}},
		{"NUL forging a pair boundary",
			map[string]epgm.PropertyValue{"a": pv("1\x00b=string:2")},
			map[string]epgm.PropertyValue{"a": pv("1"), "b": pv("2")}},
		{"NUL inside vs split values",
			map[string]epgm.PropertyValue{"a": pv("x\x00y")},
			map[string]epgm.PropertyValue{"a": pv("x"), "y": pv("")}},
		{"name/value boundary shift",
			map[string]epgm.PropertyValue{"ab": pv("c")},
			map[string]epgm.PropertyValue{"a": pv("bc")}},
	}
	for _, c := range cases {
		ka, kb := paramsKey(c.a), paramsKey(c.b)
		if ka == kb {
			t.Errorf("%s: %v and %v share key %q", c.name, c.a, c.b, ka)
		}
	}
	// Determinism: iteration order must not leak into the key.
	m := map[string]epgm.PropertyValue{"a": pv("1"), "b": pv("2"), "c": pv("3")}
	k := paramsKey(m)
	for i := 0; i < 32; i++ {
		if paramsKey(m) != k {
			t.Fatal("paramsKey is not deterministic")
		}
	}
}

// TestResultCacheAccountsRealBytes: an entry weighs what it holds - its key,
// its column names and its encoded rows - so
// usage() is the sum of those, an entry over the whole budget is refused, and every way an entry
// leaves (replacement, LRU eviction, stale generation, reclaim, purge) hands
// the broker back exactly the bytes TryReserve took for it. Ungoverned, the
// same arithmetic runs against a nil broker.
func TestResultCacheAccountsRealBytes(t *testing.T) {
	entry := func(key string, rows int) *cachedResult {
		return &cachedResult{
			columns:    []string{"a.name", "n"},
			rows:       [][]byte{bytes.Repeat([]byte(`["x",1],`), rows/2), bytes.Repeat([]byte(`["x",1],`), rows-rows/2)},
			count:      int64(rows),
			key:        key,
			generation: 1,
		}
	}
	weigh := func(r *cachedResult) int64 {
		return int64(len(r.key) + len("a.name") + len("n") + len(r.rows[0]) + len(r.rows[1]))
	}
	for _, broker := range []*govern.Broker{nil, govern.NewBroker(1<<20, govern.ShedLargest)} {
		c := newResultCache(1000)
		c.broker = broker
		check := func(step string, want int64, entries int) {
			t.Helper()
			if got, n := c.usage(); got != want || n != entries {
				t.Fatalf("governed=%v %s: usage %d B in %d entries, want %d in %d", broker != nil, step, got, n, want, entries)
			}
			if broker != nil && broker.Reserved() != want {
				t.Fatalf("%s: broker holds %d B, cache accounts %d", step, broker.Reserved(), want)
			}
		}

		a, b := entry("a", 40), entry("b", 50)
		c.put(a)
		c.put(b)
		check("two entries", weigh(a)+weigh(b), 2)

		c.put(entry("huge", 200)) // 1 600 B of rows against a 1 000 B budget
		check("entry over the budget refused", weigh(a)+weigh(b), 2)
		if _, ok := c.get("huge", 1); ok {
			t.Fatal("an entry larger than the budget was cached")
		}

		b2 := entry("b", 10)
		c.put(b2)
		check("replacement", weigh(a)+weigh(b2), 2)

		d := entry("d", 80)
		c.put(d) // a is least recently used and must go to make room
		check("eviction", weigh(b2)+weigh(d), 2)
		if _, ok := c.get("a", 1); ok {
			t.Fatal("least recently used entry survived eviction")
		}

		if _, ok := c.get("d", 2); ok {
			t.Fatal("an entry of an older generation was served")
		}
		check("stale generation dropped", weigh(b2), 1)

		c.put(entry("e", 20))
		held, _ := c.usage()
		if freed := c.reclaim(); freed != held {
			t.Fatalf("reclaim freed %d B of %d held", freed, held)
		}
		check("reclaim", 0, 0)

		c.put(entry("f", 5))
		c.purge()
		check("purge", 0, 0)
	}

	// A broker without room refuses the entry, and a refused entry reserves
	// nothing.
	tight := govern.NewBroker(100, govern.ShedLargest)
	c := newResultCache(1000)
	c.broker = tight
	c.put(entry("big", 30))
	if used, n := c.usage(); used != 0 || n != 0 || tight.Reserved() != 0 {
		t.Fatalf("refused entry left %d B in %d entries, broker %d B", used, n, tight.Reserved())
	}
}
