package epgm

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
)

// PropertyType tags the dynamic type of a PropertyValue. Properties are
// schema-free (set at the instance level), so the type travels with the
// value, exactly as in Gradoop's PropertyValue byte encoding.
type PropertyType byte

// Supported property types.
const (
	TypeNull PropertyType = iota
	TypeBool
	TypeInt64
	TypeFloat64
	TypeString
)

// String returns the type's name.
func (t PropertyType) String() string {
	switch t {
	case TypeNull:
		return "null"
	case TypeBool:
		return "bool"
	case TypeInt64:
		return "int64"
	case TypeFloat64:
		return "float64"
	case TypeString:
		return "string"
	default:
		return fmt.Sprintf("type(%d)", byte(t))
	}
}

// PropertyValue is a dynamically typed attribute value. The zero value is
// the null value (ε in Definition 2.1).
type PropertyValue struct {
	typ PropertyType
	num uint64 // bool/int64/float64 payload
	str string // string payload
}

// Null is the absent-value marker returned for missing keys.
var Null = PropertyValue{}

// PVBool wraps a bool.
func PVBool(b bool) PropertyValue {
	var n uint64
	if b {
		n = 1
	}
	return PropertyValue{typ: TypeBool, num: n}
}

// PVInt wraps an int64.
func PVInt(i int64) PropertyValue { return PropertyValue{typ: TypeInt64, num: uint64(i)} }

// PVFloat wraps a float64.
func PVFloat(f float64) PropertyValue {
	return PropertyValue{typ: TypeFloat64, num: math.Float64bits(f)}
}

// PVString wraps a string.
func PVString(s string) PropertyValue { return PropertyValue{typ: TypeString, str: s} }

// Type returns the value's dynamic type.
func (v PropertyValue) Type() PropertyType { return v.typ }

// IsNull reports whether the value is absent.
func (v PropertyValue) IsNull() bool { return v.typ == TypeNull }

// Bool returns the boolean payload (false for non-bools).
func (v PropertyValue) Bool() bool { return v.typ == TypeBool && v.num == 1 }

// Int returns the integer payload (0 for non-ints).
func (v PropertyValue) Int() int64 {
	if v.typ != TypeInt64 {
		return 0
	}
	return int64(v.num)
}

// Float returns the float payload; integers are widened.
func (v PropertyValue) Float() float64 {
	switch v.typ {
	case TypeFloat64:
		return math.Float64frombits(v.num)
	case TypeInt64:
		return float64(int64(v.num))
	default:
		return 0
	}
}

// Str returns the string payload ("" for non-strings).
func (v PropertyValue) Str() string {
	if v.typ != TypeString {
		return ""
	}
	return v.str
}

// String renders the value for display.
func (v PropertyValue) String() string {
	switch v.typ {
	case TypeNull:
		return "NULL"
	case TypeBool:
		return strconv.FormatBool(v.Bool())
	case TypeInt64:
		return strconv.FormatInt(v.Int(), 10)
	case TypeFloat64:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case TypeString:
		return v.str
	default:
		return "?"
	}
}

// AppendString appends the value to dst as String renders it, so that a
// caller that renders many values reuses one buffer.
func (v PropertyValue) AppendString(dst []byte) []byte {
	switch v.typ {
	case TypeNull:
		return append(dst, "NULL"...)
	case TypeBool:
		return strconv.AppendBool(dst, v.Bool())
	case TypeInt64:
		return strconv.AppendInt(dst, v.Int(), 10)
	case TypeFloat64:
		return strconv.AppendFloat(dst, v.Float(), 'g', -1, 64)
	case TypeString:
		return append(dst, v.str...)
	default:
		return append(dst, '?')
	}
}

// numeric reports whether the value is int64 or float64.
func (v PropertyValue) numeric() bool { return v.typ == TypeInt64 || v.typ == TypeFloat64 }

// Equal reports value equality. Numeric values compare across int/float;
// all other cross-type comparisons are false. Null equals nothing,
// including Null (three-valued-logic style, as Cypher requires).
func (v PropertyValue) Equal(o PropertyValue) bool {
	if v.typ == TypeNull || o.typ == TypeNull {
		return false
	}
	if v.numeric() && o.numeric() {
		if v.typ == TypeInt64 && o.typ == TypeInt64 {
			return v.Int() == o.Int()
		}
		return v.Float() == o.Float()
	}
	if v.typ != o.typ {
		return false
	}
	switch v.typ {
	case TypeBool:
		return v.num == o.num
	case TypeString:
		return v.str == o.str
	default:
		return false
	}
}

// Compare orders two values: -1, 0 or +1. The boolean result reports
// whether the values are comparable at all (same type family and non-null);
// incomparable pairs make every ordering predicate false, as in Cypher.
func (v PropertyValue) Compare(o PropertyValue) (int, bool) {
	if v.typ == TypeNull || o.typ == TypeNull {
		return 0, false
	}
	if v.numeric() && o.numeric() {
		if v.typ == TypeInt64 && o.typ == TypeInt64 {
			a, b := v.Int(), o.Int()
			switch {
			case a < b:
				return -1, true
			case a > b:
				return 1, true
			default:
				return 0, true
			}
		}
		a, b := v.Float(), o.Float()
		switch {
		case a < b:
			return -1, true
		case a > b:
			return 1, true
		default:
			return 0, true
		}
	}
	if v.typ != o.typ {
		return 0, false
	}
	switch v.typ {
	case TypeString:
		switch {
		case v.str < o.str:
			return -1, true
		case v.str > o.str:
			return 1, true
		default:
			return 0, true
		}
	case TypeBool:
		a, b := v.num, o.num
		switch {
		case a < b:
			return -1, true
		case a > b:
			return 1, true
		default:
			return 0, true
		}
	default:
		return 0, false
	}
}

// EncodedSize returns the number of bytes Encode appends.
func (v PropertyValue) EncodedSize() int {
	switch v.typ {
	case TypeNull:
		return 1
	case TypeBool:
		return 2
	case TypeInt64, TypeFloat64:
		return 9
	case TypeString:
		return 1 + 4 + len(v.str)
	default:
		return 1
	}
}

// Encode appends the value's binary form — one type byte followed by a
// fixed-width or length-prefixed payload — to dst and returns the extended
// slice. This is the representation stored in embedding propData arrays.
func (v PropertyValue) Encode(dst []byte) []byte {
	dst = append(dst, byte(v.typ))
	switch v.typ {
	case TypeBool:
		b := byte(0)
		if v.num == 1 {
			b = 1
		}
		dst = append(dst, b)
	case TypeInt64, TypeFloat64:
		dst = binary.BigEndian.AppendUint64(dst, v.num)
	case TypeString:
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(v.str)))
		dst = append(dst, v.str...)
	}
	return dst
}

// EncodedValueSize returns the number of bytes the encoded value at the
// start of b occupies, without decoding it - what lets an embedding step
// over the property values in front of the one it wants.
func EncodedValueSize(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, fmt.Errorf("epgm: decode property value: empty input")
	}
	n := 0
	switch t := PropertyType(b[0]); t {
	case TypeNull:
		n = 1
	case TypeBool:
		n = 2
	case TypeInt64, TypeFloat64:
		n = 9
	case TypeString:
		if len(b) < 5 {
			return 0, fmt.Errorf("epgm: decode string: truncated header")
		}
		n = 5 + int(binary.BigEndian.Uint32(b[1:5]))
	default:
		return 0, fmt.Errorf("epgm: decode property value: unknown type %d", b[0])
	}
	if len(b) < n {
		return 0, fmt.Errorf("epgm: decode %s: truncated (want %d bytes)", PropertyType(b[0]), n)
	}
	return n, nil
}

// EncodedString returns the payload of the encoded string value at the start
// of b as a view into b, without making a Go string of it; ok is false when
// the value is of another type or truncated.
func EncodedString(b []byte) (payload []byte, ok bool) {
	if len(b) < 5 || PropertyType(b[0]) != TypeString {
		return nil, false
	}
	n := int(binary.BigEndian.Uint32(b[1:5]))
	if len(b) < 5+n {
		return nil, false
	}
	return b[5 : 5+n], true
}

// DecodePropertyValue reads one encoded value from b and returns it with
// the number of bytes consumed.
func DecodePropertyValue(b []byte) (PropertyValue, int, error) {
	if len(b) == 0 {
		return Null, 0, fmt.Errorf("epgm: decode property value: empty input")
	}
	switch t := PropertyType(b[0]); t {
	case TypeNull:
		return Null, 1, nil
	case TypeBool:
		if len(b) < 2 {
			return Null, 0, fmt.Errorf("epgm: decode bool: truncated")
		}
		return PVBool(b[1] == 1), 2, nil
	case TypeInt64:
		if len(b) < 9 {
			return Null, 0, fmt.Errorf("epgm: decode int64: truncated")
		}
		return PVInt(int64(binary.BigEndian.Uint64(b[1:9]))), 9, nil
	case TypeFloat64:
		if len(b) < 9 {
			return Null, 0, fmt.Errorf("epgm: decode float64: truncated")
		}
		return PVFloat(math.Float64frombits(binary.BigEndian.Uint64(b[1:9]))), 9, nil
	case TypeString:
		if len(b) < 5 {
			return Null, 0, fmt.Errorf("epgm: decode string: truncated header")
		}
		n := int(binary.BigEndian.Uint32(b[1:5]))
		if len(b) < 5+n {
			return Null, 0, fmt.Errorf("epgm: decode string: truncated payload (want %d bytes)", n)
		}
		return PVString(string(b[5 : 5+n])), 5 + n, nil
	default:
		return Null, 0, fmt.Errorf("epgm: decode property value: unknown type %d", b[0])
	}
}
