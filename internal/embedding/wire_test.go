package embedding

import (
	"encoding/binary"
	"strings"
	"testing"
)

// wireRow frames buf as AppendWire would, with a length that may lie.
func wireRow(length uint32, buf ...byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, length), buf...)
}

// rowPrefix is a row buffer's prefix followed by body.
func rowPrefix(id, path uint32, body ...byte) []byte {
	b := binary.BigEndian.AppendUint32(nil, id)
	return append(binary.BigEndian.AppendUint32(b, path), body...)
}

// TestDecodeWireHostile: a row decode is a view of bytes that came off a
// socket, so everything the view's accessors index by is checked first. Each
// case is a structured error or the right row, never a panic or a read past
// the row.
func TestDecodeWireHostile(t *testing.T) {
	golden := goldenRow()
	type wireCase struct {
		name    string
		in      []byte
		wantErr string // empty: decodes
		want    Embedding
		rest    int
	}
	cases := []wireCase{
		{name: "no bytes", in: nil, wantErr: "truncated row length"},
		{name: "three bytes", in: []byte{0, 0, 0}, wantErr: "truncated row length"},
		{name: "empty embedding", in: wireRow(0), want: Embedding{}},
		{name: "empty embedding, then more", in: wireRow(0, 1, 2, 3), want: Embedding{}, rest: 3},
		{name: "bare prefix is the empty embedding", in: wireRow(8, rowPrefix(0, 0)...), want: Embedding{}},
		{name: "row past the end", in: wireRow(200, rowPrefix(9, 0, make([]byte, 9)...)...), wantErr: "row of 200 bytes in 17"},
		{name: "length of all ones", in: wireRow(0xffffffff), wantErr: "in 0"},
		{name: "idData not whole entries", in: wireRow(18, rowPrefix(10, 0, make([]byte, 10)...)...), wantErr: "not a multiple"},
		{name: "idData beyond the row", in: wireRow(17, rowPrefix(18, 0, make([]byte, 9)...)...), wantErr: "beyond a row"},
		{name: "pathData beyond the row", in: wireRow(17, rowPrefix(9, 1, make([]byte, 9)...)...), wantErr: "beyond a row"},
		{name: "lengths that wrap a uint32", in: wireRow(17, rowPrefix(9, 0xfffffff8, make([]byte, 9)...)...), wantErr: "beyond a row"},
		{name: "golden row", in: golden.AppendWire(nil), want: golden},
		{name: "golden row, then more", in: append(golden.AppendWire(nil), 0xaa, 0xbb), want: golden, rest: 2},
	}
	for n := uint32(1); n < prefixSize; n++ {
		cases = append(cases, wireCase{name: "row shorter than its prefix", in: wireRow(n, make([]byte, n)...), wantErr: "shorter than its prefix"})
	}
	for _, tc := range cases {
		var e Embedding
		rest, err := e.DecodeWireInto(tc.in)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: got %v, want an error with %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if e.String() != tc.want.String() || e.SizeBytes() != tc.want.SizeBytes() || (e.p == nil) != (tc.want.p == nil) {
			t.Errorf("%s: decoded %s, want %s", tc.name, e, tc.want)
		}
		if len(rest) != tc.rest {
			t.Errorf("%s: %d bytes left, want %d", tc.name, len(rest), tc.rest)
		}
		if e.WireSize() != len(e.AppendWire(nil)) {
			t.Errorf("%s: WireSize %d, AppendWire wrote %d", tc.name, e.WireSize(), len(e.AppendWire(nil)))
		}
	}
}
