package core

import (
	"math"
	"strconv"
	"unicode/utf8"

	"gradoop/internal/embedding"
	"gradoop/internal/epgm"
)

// jsonSink appends the table as a JSON array of row arrays. A streamed row
// is written straight from the embedding: ids and path lists as digits,
// property values from their propData encoding. The buffer grows as append
// grows it, so its capacity stays within a constant factor of what was
// written whatever the rows look like.
type jsonSink struct {
	dst   []byte
	cells []cell
	rows  int // written so far
	row   located
}

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

func (s *jsonSink) embedding(emb embedding.Embedding) {
	s.beginRow()
	s.row.set(emb)
	for i, c := range s.cells {
		if i > 0 {
			s.dst = append(s.dst, ',')
		}
		s.dst = c.appendJSON(s.dst, &s.row)
	}
	s.dst = append(s.dst, ']')
}

func (s *jsonSink) values(vals []epgm.PropertyValue) {
	s.beginRow()
	for i, v := range vals {
		if i > 0 {
			s.dst = append(s.dst, ',')
		}
		s.dst = AppendJSONValue(s.dst, v)
	}
	s.dst = append(s.dst, ']')
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

// AppendRowsJSON appends the RETURN clause's table to dst as a JSON array of
// row arrays, cells in Columns order, and returns the extended slice. It is
// Rows rendered by AppendJSONValue, byte for byte what encoding/json writes
// for those values, without building them: a plain RETURN allocates nothing
// per row.
func (r *Result) AppendRowsJSON(dst []byte) []byte {
	s := jsonSink{dst: dst}
	r.walk(&s)
	return append(s.dst, ']')
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
