package epgm

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPropertyValueAccessors(t *testing.T) {
	if !PVBool(true).Bool() || PVBool(false).Bool() {
		t.Fatal("bool accessor")
	}
	if PVInt(-42).Int() != -42 {
		t.Fatal("int accessor")
	}
	if PVFloat(2.5).Float() != 2.5 {
		t.Fatal("float accessor")
	}
	if PVString("hi").Str() != "hi" {
		t.Fatal("string accessor")
	}
	if !Null.IsNull() || PVInt(0).IsNull() {
		t.Fatal("null detection")
	}
	// Wrong-type accessors return zero values.
	if PVString("x").Int() != 0 || PVInt(1).Str() != "" || PVBool(true).Int() != 0 {
		t.Fatal("cross-type accessors should be zero")
	}
	// Int widens to float.
	if PVInt(3).Float() != 3.0 {
		t.Fatal("int should widen to float")
	}
}

func TestPropertyValueEqual(t *testing.T) {
	cases := []struct {
		a, b PropertyValue
		want bool
	}{
		{PVInt(1), PVInt(1), true},
		{PVInt(1), PVInt(2), false},
		{PVInt(1), PVFloat(1.0), true},
		{PVFloat(1.5), PVFloat(1.5), true},
		{PVString("a"), PVString("a"), true},
		{PVString("a"), PVString("b"), false},
		{PVString("1"), PVInt(1), false},
		{PVBool(true), PVBool(true), true},
		{PVBool(true), PVInt(1), false},
		{Null, Null, false}, // NULL = NULL is not true in Cypher
		{Null, PVInt(0), false},
	}
	for i, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("case %d: %v = %v: got %v want %v", i, c.a, c.b, got, c.want)
		}
	}
}

func TestPropertyValueCompare(t *testing.T) {
	check := func(a, b PropertyValue, want int, ok bool) {
		t.Helper()
		got, gotOK := a.Compare(b)
		if gotOK != ok || (ok && got != want) {
			t.Fatalf("%v cmp %v = (%d,%v), want (%d,%v)", a, b, got, gotOK, want, ok)
		}
	}
	check(PVInt(1), PVInt(2), -1, true)
	check(PVInt(2), PVInt(2), 0, true)
	check(PVInt(3), PVInt(2), 1, true)
	check(PVInt(1), PVFloat(1.5), -1, true)
	check(PVFloat(2.5), PVInt(2), 1, true)
	check(PVString("alice"), PVString("bob"), -1, true)
	check(PVBool(false), PVBool(true), -1, true)
	check(PVString("1"), PVInt(1), 0, false)
	check(Null, PVInt(1), 0, false)
	check(PVInt(1), Null, 0, false)
}

func TestPropertyValueEncodeDecodeRoundTrip(t *testing.T) {
	values := []PropertyValue{
		Null, PVBool(true), PVBool(false),
		PVInt(0), PVInt(-1), PVInt(math.MaxInt64), PVInt(math.MinInt64),
		PVFloat(0), PVFloat(-3.25), PVFloat(math.Inf(1)),
		PVString(""), PVString("Uni Leipzig"), PVString("日本語"),
	}
	var buf []byte
	for _, v := range values {
		buf = v.Encode(buf)
	}
	off := 0
	for i, want := range values {
		got, n, err := DecodePropertyValue(buf[off:])
		if err != nil {
			t.Fatalf("value %d: %v", i, err)
		}
		if got.Type() != want.Type() || got.String() != want.String() {
			t.Fatalf("value %d: got %v want %v", i, got, want)
		}
		if n != want.EncodedSize() {
			t.Fatalf("value %d: consumed %d, EncodedSize says %d", i, n, want.EncodedSize())
		}
		if str, ok := EncodedString(buf[off:]); ok != (want.Type() == TypeString) || string(str) != want.Str() {
			t.Fatalf("value %d: EncodedString = %q, %v for %v", i, str, ok, want)
		}
		off += n
	}
	if off != len(buf) {
		t.Fatalf("trailing bytes: consumed %d of %d", off, len(buf))
	}
}

func TestDecodePropertyValueErrors(t *testing.T) {
	bad := [][]byte{
		{},
		{byte(TypeBool)},
		{byte(TypeInt64), 1, 2},
		{byte(TypeString), 0, 0, 0, 9, 'a'},
		{200},
	}
	for i, b := range bad {
		if _, _, err := DecodePropertyValue(b); err == nil {
			t.Errorf("case %d: expected error for % x", i, b)
		}
		if _, ok := EncodedString(b); ok {
			t.Errorf("case %d: EncodedString accepted % x", i, b)
		}
	}
}

func TestQuickPropertyValueRoundTrip(t *testing.T) {
	f := func(i int64, fl float64, s string, b bool) bool {
		for _, v := range []PropertyValue{PVInt(i), PVString(s), PVBool(b)} {
			dec, n, err := DecodePropertyValue(v.Encode(nil))
			if err != nil || n != v.EncodedSize() || !dec.Equal(v) {
				return false
			}
		}
		if !math.IsNaN(fl) {
			v := PVFloat(fl)
			dec, _, err := DecodePropertyValue(v.Encode(nil))
			if err != nil || dec.Float() != fl {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAppendStringIsString: a value appended to a buffer reads as String
// renders it, whatever the buffer held before.
func TestAppendStringIsString(t *testing.T) {
	check := func(v PropertyValue) bool {
		return string(v.AppendString(nil)) == v.String() && string(v.AppendString([]byte("x"))) == "x"+v.String()
	}
	for _, v := range []PropertyValue{Null, PVBool(true), PVBool(false), PVInt(0), PVInt(-7), PVFloat(1), PVFloat(0.1),
		PVFloat(math.Inf(-1)), PVFloat(math.NaN()), PVFloat(1e21), PVString(""), PVString("a;b")} {
		if !check(v) {
			t.Errorf("%v: AppendString %q", v, v.AppendString(nil))
		}
	}
	f := func(i int64, fl float64, s string, b bool) bool {
		return check(PVInt(i)) && check(PVFloat(fl)) && check(PVString(s)) && check(PVBool(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProperties(t *testing.T) {
	var p Properties
	p = p.Set("name", PVString("Alice"))
	p = p.Set("age", PVInt(30))
	if got := p.Get("name").Str(); got != "Alice" {
		t.Fatalf("get name=%q", got)
	}
	p = p.Set("name", PVString("Bob"))
	if got := p.Get("name").Str(); got != "Bob" {
		t.Fatalf("overwrite failed: %q", got)
	}
	if len(p) != 2 {
		t.Fatalf("len=%d want 2", len(p))
	}
	if !p.Get("missing").IsNull() {
		t.Fatal("missing key should be Null")
	}
	if !p.Has("age") || p.Has("missing") {
		t.Fatal("Has")
	}
	p = p.Remove("name")
	if p.Has("name") || len(p) != 1 {
		t.Fatal("Remove")
	}
	keys := p.Keys()
	if len(keys) != 1 || keys[0] != "age" {
		t.Fatalf("keys=%v", keys)
	}
	clone := p.Clone()
	clone.Set("age", PVInt(99))
	if p.Get("age").Int() != 30 {
		t.Fatal("clone not independent")
	}
}

func TestIDSet(t *testing.T) {
	s := NewIDSet(3, 1, 2, 2)
	if len(s) != 3 {
		t.Fatalf("len=%d", len(s))
	}
	for _, id := range []ID{1, 2, 3} {
		if !s.Contains(id) {
			t.Fatalf("missing %d", id)
		}
	}
	if s.Contains(4) {
		t.Fatal("phantom member")
	}
	s2 := s.Add(0)
	if !s2.Contains(0) || s2[0] != 0 {
		t.Fatalf("sorted insert broken: %v", s2)
	}
	if !NewIDSet(1, 5).Intersects(NewIDSet(5, 9)) {
		t.Fatal("intersects")
	}
	if NewIDSet(1, 2).Intersects(NewIDSet(3, 4)) {
		t.Fatal("false intersection")
	}
}

func TestNewIDUnique(t *testing.T) {
	seen := map[ID]bool{}
	for i := 0; i < 1000; i++ {
		id := NewID()
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
	}
}
