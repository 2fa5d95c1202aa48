// Package wire is the one encoding of a parameter binding. It grew out of the
// session's result-cache parameter key - a deterministic, collision-proof
// encoding of property-value bindings - and two things read and write these
// bytes: the cache key and the job spec that ships a query's parameters to
// the cluster's workers, so a binding that round-trips here means the same
// thing on both sides. (Nothing else of the data model crosses a socket:
// workers load the dataset themselves, rows travel in their own layout -
// embedding.AppendWire - and messages are laid out with internal/field.)
//
// Layout: per name, in sorted order, a big-endian uint32 length, the name,
// and the value in epgm.PropertyValue's own type-byte + payload encoding (the
// embedding propData format). ReadParams never panics on truncated or corrupt
// input - it returns an error, which the worker maps to a structured job
// failure.
package wire

import (
	"encoding/binary"
	"fmt"
	"sort"

	"gradoop/internal/epgm"
)

// AppendParams encodes a parameter binding deterministically and
// collision-proof: names sorted, each length-prefixed and followed by the
// value's binary encoding. No value — including one carrying NUL bytes —
// can forge a pair boundary, and PVInt(1) never collides with
// PVString("1"). An empty or nil map appends nothing. These are the exact
// bytes the session's result-cache key has always used; the byte identity
// is pinned by a test.
func AppendParams(dst []byte, params map[string]epgm.PropertyValue) []byte {
	if len(params) == 0 {
		return dst
	}
	names := make([]string, 0, len(params))
	for name := range params {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(name)))
		dst = append(dst, name...)
		dst = params[name].Encode(dst)
	}
	return dst
}

// ReadParams decodes an AppendParams blob, consuming all of b. Empty input
// yields a nil map.
func ReadParams(b []byte) (map[string]epgm.PropertyValue, error) {
	if len(b) == 0 {
		return nil, nil
	}
	params := map[string]epgm.PropertyValue{}
	for len(b) > 0 {
		if len(b) < 4 {
			return nil, fmt.Errorf("wire: truncated params name length (%d bytes)", len(b))
		}
		n := binary.BigEndian.Uint32(b)
		b = b[4:]
		if uint32(len(b)) < n {
			return nil, fmt.Errorf("wire: truncated params name (want %d, have %d)", n, len(b))
		}
		name := string(b[:n])
		v, used, err := epgm.DecodePropertyValue(b[n:])
		if err != nil {
			return nil, fmt.Errorf("wire: params value for %q: %w", name, err)
		}
		params[name] = v
		b = b[int(n)+used:]
	}
	return params, nil
}
