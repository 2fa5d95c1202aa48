package core

import (
	"io"
	"math"
	"strconv"
	"unicode/utf8"

	"gradoop/internal/embedding"
	"gradoop/internal/epgm"
)

// RowsChunk bounds what WriteRowsJSON holds of the array at any time: the
// encoder hands its buffer to the writer whenever a finished row leaves it at
// or past this length. Every write but the last is therefore at least
// RowsChunk long, and an array shorter than RowsChunk arrives in one write -
// which is how the server tells a body it can announce the length of from one
// it must send chunked.
const RowsChunk = 64 << 10

// jsonSink writes the table as a JSON array of row arrays. A streamed row is
// appended straight from the embedding: ids and path lists as digits,
// property values from their propData encoding. The buffer is the chunk: it
// is flushed at the first row boundary at or past RowsChunk, so it holds less
// than a chunk plus one row, and a row longer than its spare capacity grows
// it for that row.
type jsonSink struct {
	w     io.Writer
	dst   []byte
	cells []cell
	rows  int   // begun so far
	n     int64 // bytes w has taken
	err   error // w's first, which ends the walk
	row   located
}

// chunkSlack is the room behind RowsChunk in a fresh buffer: the row that
// crosses the boundary lands in it instead of growing the buffer.
const chunkSlack = 4 << 10

// spareSinks keeps sinks with their chunks between calls, so that in the
// steady state a response of any size costs the heap no buffer: a body of a
// few bytes does not pay for a chunk, and a body of megabytes does not pay the
// steps of growing to one (a buffer grown by append allocates about five
// times what it ends up holding: 300 KiB a request for every body past a
// chunk). It is a free list and not a sync.Pool because the pool lost the
// chunk in a third of the requests of the benchmark: a sink waits out the
// next request's execution, which is when the collector runs and empties the
// pool, and a pool's fast slot belongs to one P and the handler to whichever
// runs it. The list holds at most four, which the process then keeps for
// good - 4 x 68 KiB (RowsChunk + chunkSlack each). The number bounds that
// retention and not the writers, which run outside the admission slots and are
// as many as there are connections: one that finds the list empty allocates
// its chunk, and one that finds it full drops it.
var spareSinks = make(chan *jsonSink, 4)

func (s *jsonSink) begin(p *returnPlan, _ int) {
	s.cells = p.cells
	s.dst = append(s.dst, '[')
}

func (s *jsonSink) beginRow() {
	if s.rows > 0 {
		s.dst = append(s.dst, ',')
	}
	s.rows++
	s.dst = append(s.dst, '[')
}

// endRow closes the row and reports whether the walk goes on.
func (s *jsonSink) endRow() bool {
	s.dst = append(s.dst, ']')
	return len(s.dst) < RowsChunk || s.flush()
}

// flush hands the buffer to the writer and reports whether it took it.
func (s *jsonSink) flush() bool {
	n, err := s.w.Write(s.dst)
	s.n += int64(n)
	s.err = err
	s.dst = s.dst[:0]
	return err == nil
}

func (s *jsonSink) embedding(emb embedding.Embedding) bool {
	s.beginRow()
	s.row.set(emb)
	for i, c := range s.cells {
		if i > 0 {
			s.dst = append(s.dst, ',')
		}
		s.dst = c.appendJSON(s.dst, &s.row)
	}
	return s.endRow()
}

func (s *jsonSink) values(vals []epgm.PropertyValue) bool {
	s.beginRow()
	for i, v := range vals {
		if i > 0 {
			s.dst = append(s.dst, ',')
		}
		s.dst = AppendJSONValue(s.dst, v)
	}
	return s.endRow()
}

// appendJSON appends the JSON form of the cell's value for one embedding:
// AppendJSONValue(dst, c.value(emb)) without the value in between.
func (c cell) appendJSON(dst []byte, emb *located) []byte {
	switch c.kind {
	case cellID:
		if emb.IsNullAt(c.col) {
			return append(dst, "null"...)
		}
		return appendJSONInt(dst, int64(emb.ID(c.col)))
	case cellPath:
		if emb.IsNullAt(c.col) {
			return append(dst, "null"...)
		}
		dst = append(dst, '"')
		dst = appendPathText(dst, emb.Embedding, c.col)
		return append(dst, '"')
	case cellProp:
		return appendJSONEncoded(dst, emb.propBytes(c.col))
	default:
		return AppendJSONValue(dst, c.value(emb))
	}
}

// WriteRowsJSON writes the RETURN clause's table to w as a JSON array of row
// arrays, cells in Columns order, and returns the bytes w took. It is Rows
// rendered by AppendJSONValue, byte for byte what encoding/json writes for
// those values, without building them or the array: a plain RETURN allocates
// nothing per row, and w receives the array in pieces (see RowsChunk). The
// first error w returns ends the walk and is returned; w is not called again.
func (r *Result) WriteRowsJSON(w io.Writer) (int64, error) {
	var s *jsonSink
	select {
	case s = <-spareSinks:
	default:
		s = &jsonSink{dst: make([]byte, 0, RowsChunk+chunkSlack)}
	}
	s.w = w
	r.walk(s)
	if s.err == nil {
		s.dst = append(s.dst, ']')
		s.flush()
	}
	n, err := s.n, s.err
	// A buffer some huge row grew is not kept: the spares are chunks.
	if cap(s.dst) <= 2*RowsChunk {
		*s = jsonSink{dst: s.dst[:0], row: located{offs: s.row.offs[:0]}}
		select {
		case spareSinks <- s:
		default:
		}
	}
	return n, err
}

// What follows is the one cell-to-JSON routine of the output path. Its bytes
// are those encoding/json writes for the same value with SetEscapeHTML(false)
// (FuzzAppendJSONValue holds it to that), so a body assembled from them is
// the body the server used to marshal from boxed values.

// maxExactJSONInt is the largest magnitude a JSON number carries exactly in
// an IEEE double; integers beyond it travel as decimal strings.
const maxExactJSONInt = 1 << 53

// AppendJSONValue appends the JSON form of a property value: null, true or
// false, a number, or a string. An int64 beyond ±2^53 becomes a decimal
// string to avoid silent precision loss in the client, and a NaN or infinite
// float, which JSON cannot express, becomes null.
func AppendJSONValue(dst []byte, v epgm.PropertyValue) []byte {
	switch v.Type() {
	case epgm.TypeBool:
		return strconv.AppendBool(dst, v.Bool())
	case epgm.TypeInt64:
		return appendJSONInt(dst, v.Int())
	case epgm.TypeFloat64:
		return appendJSONFloat(dst, v.Float())
	case epgm.TypeString:
		return appendJSONString(dst, v.Str())
	default:
		return append(dst, "null"...)
	}
}

// appendJSONEncoded is AppendJSONValue for a value still in its propData
// encoding (epgm.PropertyValue.Encode). A string is escaped straight from
// those bytes; no Go string is made of it.
func appendJSONEncoded(dst, enc []byte) []byte {
	if str, ok := epgm.EncodedString(enc); ok {
		return appendJSONString(dst, str)
	}
	v, _, err := epgm.DecodePropertyValue(enc)
	if err != nil {
		panic("core: corrupt propData: " + err.Error())
	}
	return AppendJSONValue(dst, v)
}

func appendJSONInt(dst []byte, n int64) []byte {
	if n > maxExactJSONInt || n < -maxExactJSONInt {
		dst = append(dst, '"')
		dst = strconv.AppendInt(dst, n, 10)
		return append(dst, '"')
	}
	return strconv.AppendInt(dst, n, 10)
}

// appendJSONFloat follows encoding/json: the ES6 number-to-string rule,
// exponent form below 1e-6 and from 1e21, exponents not zero-padded.
func appendJSONFloat(dst []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(dst, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendJSONString quotes and escapes s as encoding/json does without HTML
// escaping: \" \\ \b \f \n \r \t, \u00XX for the other control bytes, the
// escaped replacement character U+FFFD for each byte of invalid UTF-8, and
// U+2028/U+2029 escaped.
func appendJSONString[S string | []byte](dst []byte, s S) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		// At most one rune's bytes are converted, which stays on the stack.
		c, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			start = i + size
		case c == 0x2028 || c == 0x2029: // LINE and PARAGRAPH SEPARATOR
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
