// Package csv implements a Gradoop-style CSV data source and sink for
// logical graphs: a directory holding graphs.csv, vertices.csv, edges.csv
// and a metadata.csv describing the property keys and types per label
// (§2.4/§4's "Gradoop-specific CSV format").
//
// Line formats (fields separated by ';', property values by '|'):
//
//	graphs.csv:   id;label;v1|v2|...
//	vertices.csv: id;[g1,g2,...];label;v1|v2|...
//	edges.csv:    id;[g1,g2,...];sourceId;targetId;label;v1|v2|...
//	metadata.csv: kind;label;key1:type1,key2:type2,...
//
// kind is g, v or e. Values are encoded per the metadata's key order; an
// empty field is a null (absent) value.
package csv

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"gradoop/internal/epgm"
)

// File names within a dataset directory.
const (
	MetadataFile = "metadata.csv"
	GraphsFile   = "graphs.csv"
	VerticesFile = "vertices.csv"
	EdgesFile    = "edges.csv"
)

// escape protects the structural characters of the format.
func escape(s string) string {
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			sb.WriteString(`\\`)
		case ';':
			sb.WriteString(`\s`)
		case '|':
			sb.WriteString(`\p`)
		case ',':
			sb.WriteString(`\c`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteByte(c)
		}
	}
	return sb.String()
}

// unescape undoes escape; a string with nothing escaped is its own result.
func unescape(s string) (string, error) {
	if !strings.ContainsRune(s, '\\') {
		return s, nil
	}
	b, err := appendUnescaped(nil, s)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// appendUnescaped appends s, escapes undone, to dst.
func appendUnescaped[T ~string | ~[]byte](dst []byte, s T) ([]byte, error) {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '\\' {
			dst = append(dst, c)
			continue
		}
		i++
		if i >= len(s) {
			return dst, fmt.Errorf("csv: dangling escape in %q", s)
		}
		switch s[i] {
		case '\\':
			dst = append(dst, '\\')
		case 's':
			dst = append(dst, ';')
		case 'p':
			dst = append(dst, '|')
		case 'c':
			dst = append(dst, ',')
		case 'n':
			dst = append(dst, '\n')
		default:
			return dst, fmt.Errorf("csv: unknown escape \\%c in %q", s[i], s)
		}
	}
	return dst, nil
}

// splitUnescaped appends the fields of s, split on sep and honoring
// backslash escapes, to parts: sub-slices of s, nothing copied.
func splitUnescaped[T ~string | ~[]byte](parts []T, s T, sep byte) []T {
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case sep:
			parts = append(parts, s[start:i])
			start = i + 1
		}
	}
	return append(parts, s[start:])
}

// typeName maps a property type to its metadata name.
func typeName(t epgm.PropertyType) string {
	switch t {
	case epgm.TypeBool:
		return "boolean"
	case epgm.TypeInt64:
		return "long"
	case epgm.TypeFloat64:
		return "double"
	case epgm.TypeString:
		return "string"
	default:
		return "null"
	}
}

// emptyStringField marks an empty string value, distinguishing it from a
// null (absent) value, which encodes as the empty field. A literal "\e"
// never collides: escape() turns a real backslash into "\\".
const emptyStringField = `\e`

func encodeValue(v epgm.PropertyValue) string {
	if v.IsNull() {
		return ""
	}
	if v.Type() == epgm.TypeString && v.Str() == "" {
		return emptyStringField
	}
	return escape(v.String())
}

// decodeValue decodes field, a column of type typ, into a value. A string's
// payload is str: the field unescaped, which the caller allocates. A number or
// a boolean is parsed in place: the conversion of a field of up to 32 bytes
// that does not escape is not allocated.
func decodeValue(field []byte, typ, str string) (epgm.PropertyValue, error) {
	if len(field) == 0 {
		return epgm.Null, nil
	}
	if typ == "string" {
		return epgm.PVString(str), nil
	}
	raw := field
	if bytes.IndexByte(field, '\\') >= 0 {
		var err error
		if raw, err = appendUnescaped(nil, field); err != nil {
			return epgm.Null, err
		}
	}
	switch typ {
	case "boolean":
		b, err := strconv.ParseBool(string(raw))
		if err != nil {
			return epgm.Null, fmt.Errorf("csv: bad boolean %q: %v", raw, err)
		}
		return epgm.PVBool(b), nil
	case "long":
		n, err := strconv.ParseInt(string(raw), 10, 64)
		if err != nil {
			return epgm.Null, fmt.Errorf("csv: bad long %q: %v", raw, err)
		}
		return epgm.PVInt(n), nil
	case "double":
		f, err := strconv.ParseFloat(string(raw), 64)
		if err != nil {
			return epgm.Null, fmt.Errorf("csv: bad double %q: %v", raw, err)
		}
		return epgm.PVFloat(f), nil
	default:
		return epgm.Null, fmt.Errorf("csv: unknown property type %q", typ)
	}
}

// metadata records per (kind, label) the ordered property keys and types.
type metadata struct {
	keys  map[string][]string // kind+label -> keys
	types map[string][]string // kind+label -> types
}

func newMetadata() *metadata {
	return &metadata{keys: map[string][]string{}, types: map[string][]string{}}
}

func metaKey(kind, label string) string { return kind + "\x00" + label }

func (m *metadata) observe(kind, label string, props epgm.Properties) {
	k := metaKey(kind, label)
	keys := m.keys[k]
	types := m.types[k]
	for _, p := range props {
		if p.Value.IsNull() {
			continue
		}
		found := false
		for i, existing := range keys {
			if existing == p.Key {
				found = true
				if types[i] == "null" {
					types[i] = typeName(p.Value.Type())
				}
				break
			}
		}
		if !found {
			keys = append(keys, p.Key)
			types = append(types, typeName(p.Value.Type()))
		}
	}
	m.keys[k] = keys
	m.types[k] = types
}

func (m *metadata) encodeProps(kind, label string, props epgm.Properties) string {
	k := metaKey(kind, label)
	keys := m.keys[k]
	fields := make([]string, len(keys))
	for i, key := range keys {
		fields[i] = encodeValue(props.Get(key))
	}
	return strings.Join(fields, "|")
}
