package field

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// leaf and message exercise every field kind and a nested list.
type leaf struct {
	ID   uint64
	Tags []string
}

func (l *leaf) layout(c *Codec) {
	c.U64(&l.ID)
	Slice(c, &l.Tags, 4, func(s *string, c *Codec) { c.String(s) })
}

type message struct {
	Kind   uint8
	Count  uint32
	ID     uint64
	Delta  int64
	Index  int
	On     bool
	Value  float64
	Took   time.Duration
	Name   string
	Raw    []byte
	Leaves []leaf
}

func (m *message) layout(c *Codec) {
	c.U8(&m.Kind)
	c.U32(&m.Count)
	c.U64(&m.ID)
	c.I64(&m.Delta)
	c.Int32(&m.Index)
	c.Bool(&m.On)
	c.F64(&m.Value)
	c.Dur(&m.Took)
	c.String(&m.Name)
	c.Blob(&m.Raw)
	Slice(c, &m.Leaves, 8+4, (*leaf).layout)
}

func sample() message {
	return message{
		Kind: 7, Count: 1 << 31, ID: math.MaxUint64, Delta: -5, Index: 3, On: true,
		Value: -0.25, Took: 3 * time.Microsecond, Name: "Leip\x00zig", Raw: []byte{0, 0xff},
		Leaves: []leaf{{ID: 1, Tags: []string{"a", ""}}, {ID: 2}},
	}
}

func encode(m *message) []byte {
	c := Appender(nil)
	m.layout(&c)
	return c.Bytes()
}

// TestBytes pins the conventions against encoding/binary: big-endian
// integers, length-prefixed strings, count-prefixed lists, fields in layout
// order and nothing between them.
func TestBytes(t *testing.T) {
	m := sample()
	var want []byte
	want = append(want, 7)
	want = binary.BigEndian.AppendUint32(want, 1<<31)
	want = binary.BigEndian.AppendUint64(want, math.MaxUint64)
	want = binary.BigEndian.AppendUint64(want, 0xfffffffffffffffb)
	want = binary.BigEndian.AppendUint32(want, 3)
	want = append(want, 1)
	want = binary.BigEndian.AppendUint64(want, math.Float64bits(-0.25))
	want = binary.BigEndian.AppendUint64(want, 3000)
	want = binary.BigEndian.AppendUint32(want, 8)
	want = append(want, "Leip\x00zig"...)
	want = binary.BigEndian.AppendUint32(want, 2)
	want = append(want, 0, 0xff)
	want = binary.BigEndian.AppendUint32(want, 2)
	want = binary.BigEndian.AppendUint64(want, 1)
	want = binary.BigEndian.AppendUint32(want, 2)
	want = binary.BigEndian.AppendUint32(want, 1)
	want = append(want, 'a')
	want = binary.BigEndian.AppendUint32(want, 0)
	want = binary.BigEndian.AppendUint64(want, 2)
	want = binary.BigEndian.AppendUint32(want, 0)
	if got := encode(&m); !bytes.Equal(got, want) {
		t.Fatalf("encoding\n got %x\nwant %x", got, want)
	}
	// An appender given a buffer keeps what is in it.
	c := Appender([]byte("head"))
	m.layout(&c)
	if got := c.Bytes(); !bytes.Equal(got, append([]byte("head"), want...)) {
		t.Fatalf("appending to a prefix: %x", got)
	}
}

// TestRoundTrip: the one layout function reads back what it wrote, an empty
// list or blob comes back nil, a blob is copied out of the input, and the
// cursor ends on the last byte.
func TestRoundTrip(t *testing.T) {
	m := sample()
	enc := encode(&m)
	c := Reader(enc)
	var got message
	got.layout(&c)
	if err := c.End(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip\n got %+v\nwant %+v", got, m)
	}
	if got.Leaves[1].Tags != nil {
		t.Fatal("an empty list must decode to nil")
	}
	clear(enc)
	if !bytes.Equal(got.Raw, m.Raw) {
		t.Fatalf("a decoded blob reads %x once its input is cleared", got.Raw)
	}
	m.Raw = []byte{}
	c = Reader(encode(&m))
	got.layout(&c)
	if c.Err() != nil || got.Raw != nil {
		t.Fatalf("an empty blob decodes to %#v (%v)", got.Raw, c.Err())
	}
}

// TestTruncated feeds every strict prefix of a valid encoding: each is an
// error that names where the input ran out, none panics, and the error is
// sticky - the fields after it are left alone.
func TestTruncated(t *testing.T) {
	m := sample()
	enc := encode(&m)
	for cut := 0; cut < len(enc); cut++ {
		c := Reader(enc[:cut])
		got := message{Name: "untouched"}
		got.layout(&c)
		if c.Err() == nil {
			t.Fatalf("truncation at %d/%d decoded without error", cut, len(enc))
		}
		if !strings.HasPrefix(c.Err().Error(), "field: ") {
			t.Fatalf("error %q", c.Err())
		}
		if cut < 1+4+8+8+4+1+8+8 && got.Name != "untouched" {
			t.Fatalf("cut at %d: a field after the error was written", cut)
		}
		if err := c.End(); err != c.Err() {
			t.Fatalf("End after an error must return it, got %v", err)
		}
	}
}

// TestHostileCounts: a count the remaining bytes cannot hold is rejected
// before the list is allocated, whatever it claims.
func TestHostileCounts(t *testing.T) {
	m := message{Leaves: []leaf{{ID: 1}}}
	enc := encode(&m)
	off := len(enc) - (4 + 8 + 4) // the leaves count
	for _, n := range []uint32{2, 1 << 20, math.MaxUint32} {
		forged := append([]byte(nil), enc...)
		binary.BigEndian.PutUint32(forged[off:], n)
		c := Reader(forged)
		var got message
		got.layout(&c)
		if c.Err() == nil || !strings.Contains(c.Err().Error(), "exceeds payload") {
			t.Fatalf("count %d: %v", n, c.Err())
		}
		if got.Leaves != nil {
			t.Fatalf("count %d allocated %d elements", n, len(got.Leaves))
		}
	}
	// The same for a string length and a blob length.
	c := Reader(binary.BigEndian.AppendUint32(nil, math.MaxUint32))
	var s string
	c.String(&s)
	if c.Err() == nil || s != "" {
		t.Fatalf("hostile string length: %q, %v", s, c.Err())
	}
	c = Reader(binary.BigEndian.AppendUint32(nil, math.MaxUint32))
	var b []byte
	c.Blob(&b)
	if c.Err() == nil || b != nil {
		t.Fatalf("hostile blob length: %x, %v", b, c.Err())
	}
}

// TestBoolIsCanonical: a bool byte other than 0 or 1 is an error, so that
// whatever decodes re-encodes to the bytes it came from.
func TestBoolIsCanonical(t *testing.T) {
	for b := 0; b < 256; b++ {
		c := Reader([]byte{byte(b)})
		var v bool
		c.Bool(&v)
		if (c.Err() == nil) != (b < 2) || v != (b == 1) {
			t.Fatalf("bool byte %#x: %v, %v", b, v, c.Err())
		}
	}
}

// TestEnd: bytes left over after the last field are an error for a message
// that must fill its input, and Rest is the view of them for one that is
// followed by a body.
func TestEnd(t *testing.T) {
	c := Reader([]byte{0, 0, 0, 9, 0xEE, 0xFF})
	var n uint32
	c.U32(&n)
	if n != 9 || c.Err() != nil || !bytes.Equal(c.Rest(), []byte{0xEE, 0xFF}) {
		t.Fatalf("n=%d err=%v rest=%x", n, c.Err(), c.Rest())
	}
	if err := c.End(); err == nil || !strings.Contains(err.Error(), "2 trailing bytes") {
		t.Fatalf("End with unread input: %v", err)
	}
	a := Appender(nil)
	a.U32(&n)
	if err := a.End(); err != nil {
		t.Fatalf("End on an appender: %v", err)
	}
}
