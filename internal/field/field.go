// Package field is the cursor the engine's messages are laid out with. A
// message type names its fields once, in wire order, in one function that
// takes a *Codec; the same function encodes the message when the Codec is
// appending and decodes it when the Codec is consuming, so the two directions
// cannot list different fields or a different order.
//
// Conventions: integers are big-endian, a string is its uint32 length and
// its bytes, a list is its uint32 count and its elements. A consuming Codec
// never panics on truncated or hostile input: the first field that does not
// fit sets a sticky error, every later field is a no-op, and a list's count
// is held against the bytes left before anything is allocated for it.
//
// The package imports the standard library only. trace and obs sit below
// everything else in the engine (wire -> epgm -> dataflow -> trace, obs), so
// a codec they can share has to sit below them.
package field

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// Codec is one pass over one message: either appending to a buffer or
// consuming one.
type Codec struct {
	buf []byte // appending: the output so far; consuming: the whole input
	off int    // consuming: how much of buf has been read
	dec bool
	err error
}

// Appender returns a Codec that appends to dst. A nil dst starts with room
// for a frame header, so a small message is one allocation.
func Appender(dst []byte) Codec {
	if dst == nil {
		dst = make([]byte, 0, 64)
	}
	return Codec{buf: dst}
}

// Reader returns a Codec that consumes b. Strings are copied out of b;
// nothing decoded aliases it.
func Reader(b []byte) Codec { return Codec{buf: b, dec: true} }

// Bytes is what an appending Codec has written, dst included.
func (c *Codec) Bytes() []byte { return c.buf }

// Rest is what a consuming Codec has not read yet, a view of its input.
func (c *Codec) Rest() []byte { return c.buf[c.off:] }

// Err is the first decoding error, nil while every field has fitted.
func (c *Codec) Err() error { return c.err }

// End is Err for a message that must fill its input: unread bytes mean the
// two sides disagree on the layout.
func (c *Codec) End() error {
	if c.err == nil && c.dec && c.off != len(c.buf) {
		c.err = fmt.Errorf("field: %d trailing bytes after byte %d", len(c.buf)-c.off, c.off)
	}
	return c.err
}

// take consumes n bytes, or records that they are not there.
func (c *Codec) take(n uint32, what string) ([]byte, bool) {
	if c.err != nil {
		return nil, false
	}
	if left := len(c.buf) - c.off; uint64(left) < uint64(n) {
		c.err = fmt.Errorf("field: truncated %s at byte %d (want %d, have %d)", what, c.off, n, left)
		return nil, false
	}
	b := c.buf[c.off : c.off+int(n)]
	c.off += int(n)
	return b, true
}

// U8 is one byte.
func (c *Codec) U8(v *uint8) {
	if !c.dec {
		c.buf = append(c.buf, *v)
	} else if b, ok := c.take(1, "u8"); ok {
		*v = b[0]
	}
}

// U32 is a big-endian uint32.
func (c *Codec) U32(v *uint32) {
	if !c.dec {
		c.buf = binary.BigEndian.AppendUint32(c.buf, *v)
	} else if b, ok := c.take(4, "u32"); ok {
		*v = binary.BigEndian.Uint32(b)
	}
}

// U64 is a big-endian uint64.
func (c *Codec) U64(v *uint64) {
	if !c.dec {
		c.buf = binary.BigEndian.AppendUint64(c.buf, *v)
	} else if b, ok := c.take(8, "u64"); ok {
		*v = binary.BigEndian.Uint64(b)
	}
}

// I64 is an int64 as its two's-complement uint64.
func (c *Codec) I64(v *int64) {
	u := uint64(*v)
	c.U64(&u)
	*v = int64(u)
}

// Int32 is an int carried in four bytes: indices and small counts.
func (c *Codec) Int32(v *int) {
	u := uint32(*v)
	c.U32(&u)
	*v = int(u)
}

// F64 is a float64 as its IEEE-754 bits.
func (c *Codec) F64(v *float64) {
	u := math.Float64bits(*v)
	c.U64(&u)
	*v = math.Float64frombits(u)
}

// Dur is a duration as its nanoseconds.
func (c *Codec) Dur(v *time.Duration) { c.I64((*int64)(v)) }

// Bool is one byte, 0 or 1; any other value is an error, so that what
// decodes has exactly one encoding.
func (c *Codec) Bool(v *bool) {
	var u uint8
	if *v {
		u = 1
	}
	c.U8(&u)
	if u > 1 {
		c.err = fmt.Errorf("field: bool byte %#02x at byte %d", u, c.off-1)
		return
	}
	*v = u == 1
}

// String is a uint32 length and that many bytes.
func (c *Codec) String(v *string) {
	n := uint32(len(*v))
	c.U32(&n)
	if !c.dec {
		c.buf = append(c.buf, *v...)
	} else if b, ok := c.take(n, "string"); ok {
		*v = string(b)
	}
}

// Slice is a uint32 count and that many elements, each laid out by elem. An
// element takes at least minElemBytes on the wire (one or more): a consuming
// Codec rejects a count the bytes left cannot hold before it allocates. An
// empty list decodes to nil.
func Slice[T any](c *Codec, s *[]T, minElemBytes int, elem func(*T, *Codec)) {
	n := uint32(len(*s))
	c.U32(&n)
	if c.dec {
		if c.err != nil {
			return
		}
		if left := len(c.buf) - c.off; uint64(n)*uint64(minElemBytes) > uint64(left) {
			c.err = fmt.Errorf("field: count %d at byte %d exceeds payload (%d bytes left, %d a piece)",
				n, c.off-4, left, minElemBytes)
			return
		}
		*s = nil
		if n > 0 {
			*s = make([]T, n)
		}
	}
	for i := range *s {
		if c.err != nil {
			return
		}
		elem(&(*s)[i], c)
	}
}
