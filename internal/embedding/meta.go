package embedding

import (
	"fmt"
	"strings"
)

// EntryKind describes what a metadata column refers to.
type EntryKind byte

// Column kinds.
const (
	VertexEntry EntryKind = iota
	EdgeEntry
	PathEntry
)

// String returns the kind's name.
func (k EntryKind) String() string {
	switch k {
	case VertexEntry:
		return "vertex"
	case EdgeEntry:
		return "edge"
	case PathEntry:
		return "path"
	default:
		return "?"
	}
}

// Meta is the query-compile-time companion of an Embedding: it maps query
// variables to idData columns and (variable, property key) pairs to propData
// columns. Per the paper it is "utilized and updated by the query operators
// but not part of the embedding data structure" — one Meta describes every
// embedding in a dataset.
type Meta struct {
	vars  []string    // column -> variable name
	kinds []EntryKind // column -> kind
	props []PropRef   // property column -> reference
}

// PropRef names a stored property value.
type PropRef struct {
	Var string
	Key string
}

// NewMeta returns an empty metadata object.
func NewMeta() *Meta { return &Meta{} }

// Columns returns the number of id columns.
func (m *Meta) Columns() int { return len(m.vars) }

// PropColumns returns the number of property columns.
func (m *Meta) PropColumns() int { return len(m.props) }

// AddEntry appends an id column for a variable and returns its column index.
func (m *Meta) AddEntry(variable string, kind EntryKind) int {
	m.vars = append(m.vars, variable)
	m.kinds = append(m.kinds, kind)
	return len(m.vars) - 1
}

// AddProp appends a property column and returns its index.
func (m *Meta) AddProp(variable, key string) int {
	m.props = append(m.props, PropRef{Var: variable, Key: key})
	return len(m.props) - 1
}

// Column returns the id column of a variable.
func (m *Meta) Column(variable string) (int, bool) {
	for i, v := range m.vars {
		if v == variable {
			return i, true
		}
	}
	return 0, false
}

// Kind returns the kind of column i.
func (m *Meta) Kind(i int) EntryKind { return m.kinds[i] }

// Var returns the variable at column i.
func (m *Meta) Var(i int) string { return m.vars[i] }

// Vars returns all variables in column order.
func (m *Meta) Vars() []string { return append([]string(nil), m.vars...) }

// HasVar reports whether the metadata contains the variable.
func (m *Meta) HasVar(variable string) bool {
	_, ok := m.Column(variable)
	return ok
}

// PropColumn returns the property column holding variable.key.
func (m *Meta) PropColumn(variable, key string) (int, bool) {
	for i, p := range m.props {
		if p.Var == variable && p.Key == key {
			return i, true
		}
	}
	return 0, false
}

// HasProp reports whether the metadata has a property column for
// variable.key.
func (m *Meta) HasProp(variable, key string) bool {
	_, ok := m.PropColumn(variable, key)
	return ok
}

// PropRefAt returns the reference stored at property column i.
func (m *Meta) PropRefAt(i int) PropRef { return m.props[i] }

// SharedVars returns the variables present in both metadata objects —
// the join keys of a JoinEmbeddings operator.
func (m *Meta) SharedVars(o *Meta) []string {
	var shared []string
	for _, v := range m.vars {
		if o.HasVar(v) {
			shared = append(shared, v)
		}
	}
	return shared
}

// Merge computes the metadata of the rows a writer makes of rows described by
// m (left) and o (right), and the keep-mask it writes them with: m's columns,
// then o's other than the variables m has - those are m's column - then the
// property columns of both, each only if live reads it. A property column
// past the 64th is kept.
func (m *Meta) Merge(o *Meta, live Live) (*Meta, Keep) {
	out := &Meta{
		vars:  make([]string, 0, len(m.vars)+len(o.vars)),
		kinds: make([]EntryKind, 0, len(m.vars)+len(o.vars)),
		props: make([]PropRef, 0, len(m.props)+len(o.props)),
	}
	var k Keep
	out.keepIDs(m, &k.Left, func(v string) bool { return live.reads(v, "") })
	out.keepIDs(o, &k.Right, func(v string) bool { return !m.HasVar(v) && live.reads(v, "") })
	out.keepProps(m, &k.Left, live)
	out.keepProps(o, &k.Right, live)
	return out, k
}

// keepProps appends the property columns of in that live reads to m and marks
// the others in d.
func (m *Meta) keepProps(in *Meta, d *Drop, live Live) {
	for c, p := range in.props {
		if c < 64 && !live.reads(p.Var, p.Key) {
			d.Props |= 1 << c
			continue
		}
		m.props = append(m.props, p)
	}
}

// keepIDs appends the id columns of in that keep says to write to m and marks
// the others in d.
func (m *Meta) keepIDs(in *Meta, d *Drop, keep func(v string) bool) {
	for c, v := range in.vars {
		if !keep(v) {
			d.dropID(c)
			continue
		}
		m.vars = append(m.vars, v)
		m.kinds = append(m.kinds, in.kinds[c])
	}
}

// String renders the mapping like the paper's example
// {p1:0, p1.name:0, ...}.
func (m *Meta) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, v := range m.vars {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s:%d(%s)", v, i, m.kinds[i])
	}
	for i, p := range m.props {
		if i > 0 || len(m.vars) > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s.%s:%d", p.Var, p.Key, i)
	}
	sb.WriteByte('}')
	return sb.String()
}
