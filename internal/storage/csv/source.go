package csv

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"gradoop/internal/dataflow"
	"gradoop/internal/epgm"
)

// ReadLogicalGraph loads a dataset directory written by WriteLogicalGraph
// into a logical graph backed by env. The id allocator is advanced past the
// loaded ids so later NewID calls cannot collide.
//
// A file is read whole and its element array allocated once, at its line
// count. Fields are split into buffers reused for every line. What is
// allocated is the file, the array, one Properties per element at its final
// length, one string per element holding all its string values, and one
// string or set per distinct label or graph membership field: no element
// keeps more than its own values of a line alive.
func ReadLogicalGraph(env *dataflow.Env, dir string) (*epgm.LogicalGraph, error) {
	meta, err := readMetadata(filepath.Join(dir, MetadataFile))
	if err != nil {
		return nil, err
	}
	r := &reader{meta: meta, labels: map[string]string{}, graphs: map[string]epgm.IDSet{}}

	var head epgm.GraphHead
	headSeen := false
	heads := map[string]*columns{}
	path := filepath.Join(dir, GraphsFile)
	data, _, err := readFile(path)
	if err != nil {
		return nil, err
	}
	if err := eachLine(path, data, func(line []byte) error {
		f := r.split(line)
		if len(f) != 3 {
			return fmt.Errorf("csv: malformed graph line %q", line)
		}
		id, err := parseID(f[0])
		if err != nil {
			return err
		}
		c, err := r.columns(heads, "g", f[1])
		if err != nil {
			return err
		}
		props, err := r.props(c, f[2])
		if err != nil {
			return err
		}
		if !headSeen {
			head = epgm.GraphHead{ID: id, Label: c.label, Properties: props}
			headSeen = true
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if !headSeen {
		return nil, fmt.Errorf("csv: %s contains no graph head", dir)
	}
	r.bump(head.ID)

	path = filepath.Join(dir, VerticesFile)
	data, lines, err := readFile(path)
	if err != nil {
		return nil, err
	}
	vertices := make([]epgm.Vertex, 0, lines)
	vcols := map[string]*columns{}
	if err := eachLine(path, data, func(line []byte) error {
		f := r.split(line)
		if len(f) != 4 {
			return fmt.Errorf("csv: malformed vertex line %q", line)
		}
		id, err := parseID(f[0])
		if err != nil {
			return err
		}
		graphs, err := r.graphIDs(f[1])
		if err != nil {
			return err
		}
		c, err := r.columns(vcols, "v", f[2])
		if err != nil {
			return err
		}
		props, err := r.props(c, f[3])
		if err != nil {
			return err
		}
		r.bump(id)
		vertices = append(vertices, epgm.Vertex{ID: id, Label: c.label, Properties: props, GraphIDs: graphs})
		return nil
	}); err != nil {
		return nil, err
	}

	path = filepath.Join(dir, EdgesFile)
	if data, lines, err = readFile(path); err != nil {
		return nil, err
	}
	edges := make([]epgm.Edge, 0, lines)
	ecols := map[string]*columns{}
	if err := eachLine(path, data, func(line []byte) error {
		f := r.split(line)
		if len(f) != 6 {
			return fmt.Errorf("csv: malformed edge line %q", line)
		}
		id, err := parseID(f[0])
		if err != nil {
			return err
		}
		graphs, err := r.graphIDs(f[1])
		if err != nil {
			return err
		}
		src, err := parseID(f[2])
		if err != nil {
			return err
		}
		tgt, err := parseID(f[3])
		if err != nil {
			return err
		}
		c, err := r.columns(ecols, "e", f[4])
		if err != nil {
			return err
		}
		props, err := r.props(c, f[5])
		if err != nil {
			return err
		}
		r.bump(id)
		edges = append(edges, epgm.Edge{ID: id, Label: c.label, Source: src, Target: tgt, Properties: props, GraphIDs: graphs})
		return nil
	}); err != nil {
		return nil, err
	}

	epgm.EnsureIDsAbove(r.maxID)
	return epgm.NewLogicalGraph(env, head,
		dataflow.FromSlice(env, vertices), dataflow.FromSlice(env, edges)), nil
}

// reader is what reading one dataset keeps between lines: the metadata, one
// string per distinct label (DESIGN decision 27) and one set per distinct
// graph membership field, the buffers a line is split and decoded into, and
// the largest id read.
type reader struct {
	meta   *metadata
	labels map[string]string
	graphs map[string]epgm.IDSet
	// fields and values are a line's fields and a property field's values.
	fields, values [][]byte
	// text is an element's string values unescaped, one after the other,
	// and spans each one's place in it.
	text  []byte
	spans [][2]int
	maxID epgm.ID
}

// columns is one label of one kind of element as its lines spell it: the
// label, interned, and its property keys and types in field order.
type columns struct {
	label       string
	keys, types []string
}

func (r *reader) bump(id epgm.ID) {
	if id > r.maxID {
		r.maxID = id
	}
}

// split splits a line into its fields, in the reader's buffer.
func (r *reader) split(line []byte) [][]byte {
	r.fields = splitUnescaped(r.fields[:0], line, ';')
	return r.fields
}

// columns returns the columns of a label field of the given kind, cols being
// the kind's table of label fields read so far. An element whose label is a
// string of its own, or a substring of its line, would keep the line alive
// and repeat the label once per element: a label is one string, allocated when
// its field is first read.
func (r *reader) columns(cols map[string]*columns, kind string, field []byte) (*columns, error) {
	if c, ok := cols[string(field)]; ok {
		return c, nil
	}
	label, err := unescape(string(field))
	if err != nil {
		return nil, err
	}
	if l, ok := r.labels[label]; ok {
		label = l
	} else {
		r.labels[label] = label
	}
	k := metaKey(kind, label)
	c := &columns{label: label, keys: r.meta.keys[k], types: r.meta.types[k]}
	cols[string(field)] = c
	return c, nil
}

// graphIDs returns the graph membership a field spells: one set per distinct
// field, shared by every element that spells it, with no room to grow, so
// that IDSet.Add on one element's copies instead of writing into the others'.
func (r *reader) graphIDs(field []byte) (epgm.IDSet, error) {
	if set, ok := r.graphs[string(field)]; ok {
		return set, nil
	}
	set, err := parseIDSet(string(field))
	if err != nil {
		return nil, err
	}
	set = set[:len(set):len(set)]
	r.graphs[string(field)] = set
	return set, nil
}

// props decodes a property field of a label's elements: its values in the
// order of the label's keys, a missing or empty one null. The string values
// are unescaped first, into one string holding only them that they share;
// then the properties are allocated at their count of non-null values.
func (r *reader) props(c *columns, field []byte) (epgm.Properties, error) {
	if len(c.keys) == 0 || len(field) == 0 {
		return nil, nil
	}
	r.values = splitUnescaped(r.values[:0], field, '|')
	values := r.values[:min(len(r.values), len(c.keys))]
	n := 0
	r.text, r.spans = r.text[:0], r.spans[:0]
	for i, v := range values {
		if len(v) == 0 {
			continue
		}
		n++
		if c.types[i] != "string" || string(v) == emptyStringField {
			continue
		}
		lo := len(r.text)
		var err error
		if r.text, err = appendUnescaped(r.text, v); err != nil {
			return nil, fmt.Errorf("csv: label %s key %s: %v", c.label, c.keys[i], err)
		}
		r.spans = append(r.spans, [2]int{lo, len(r.text)})
	}
	if n == 0 {
		return nil, nil
	}
	text := string(r.text)
	props := make(epgm.Properties, 0, n)
	spans := r.spans
	for i, v := range values {
		var str string
		if len(v) > 0 && c.types[i] == "string" && string(v) != emptyStringField {
			str, spans = text[spans[0][0]:spans[0][1]], spans[1:]
		}
		val, err := decodeValue(v, c.types[i], str)
		if err != nil {
			return nil, fmt.Errorf("csv: label %s key %s: %v", c.label, c.keys[i], err)
		}
		if !val.IsNull() {
			props = props.Set(c.keys[i], val)
		}
	}
	return props, nil
}

// parseID parses an id field in place.
func parseID[T ~string | ~[]byte](s T) (epgm.ID, error) {
	n, err := strconv.ParseUint(string(s), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("csv: bad id %q: %v", s, err)
	}
	return epgm.ID(n), nil
}

func parseIDSet(s string) (epgm.IDSet, error) {
	s = strings.TrimPrefix(s, "[")
	s = strings.TrimSuffix(s, "]")
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	set := epgm.NewIDSet()
	for _, p := range parts {
		id, err := parseID(p)
		if err != nil {
			return nil, err
		}
		set = set.Add(id)
	}
	return set, nil
}

// readFile reads a file whole and counts its lines, the most elements it
// holds.
func readFile(path string) ([]byte, int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("csv: %w", err)
	}
	lines := bytes.Count(data, []byte{'\n'})
	if len(data) > 0 && data[len(data)-1] != '\n' {
		lines++
	}
	return data, lines, nil
}

// eachLine calls fn with every line of data that is not empty, without its
// line end - "\n" or "\r\n" - and prefixes an error of fn with path:line.
func eachLine(path string, data []byte, fn func(line []byte) error) error {
	for lineNo := 1; len(data) > 0; lineNo++ {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		line = bytes.TrimSuffix(line, []byte{'\r'})
		if len(line) == 0 {
			continue
		}
		if err := fn(line); err != nil {
			return fmt.Errorf("%s:%d: %w", path, lineNo, err)
		}
	}
	return nil
}

func readMetadata(path string) (*metadata, error) {
	data, _, err := readFile(path)
	if err != nil {
		return nil, err
	}
	meta := newMetadata()
	err = eachLine(path, data, func(b []byte) error {
		line := string(b)
		parts := splitUnescaped(nil, line, ';')
		if len(parts) != 3 {
			return fmt.Errorf("csv: malformed metadata line %q", line)
		}
		kind := parts[0]
		label, err := unescape(parts[1])
		if err != nil {
			return err
		}
		k := metaKey(kind, label)
		if parts[2] == "" {
			meta.keys[k] = nil
			return nil
		}
		for _, col := range splitUnescaped(nil, parts[2], ',') {
			name, typ, ok := strings.Cut(col, ":")
			if !ok {
				return fmt.Errorf("csv: malformed metadata column %q", col)
			}
			key, err := unescape(name)
			if err != nil {
				return err
			}
			meta.keys[k] = append(meta.keys[k], key)
			meta.types[k] = append(meta.types[k], typ)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return meta, nil
}
