package wire

import (
	"encoding/binary"
	"sort"
	"testing"

	"gradoop/internal/epgm"
)

func sampleParams() map[string]epgm.PropertyValue {
	return map[string]epgm.PropertyValue{
		"name":  epgm.PVString("Alice\x00Bob"), // NUL inside a value must not forge boundaries
		"age":   epgm.PVInt(42),
		"score": epgm.PVFloat(3.5),
		"ok":    epgm.PVBool(true),
		"gone":  epgm.Null,
	}
}

// legacyParamsKey is the historical session paramsKey encoding, reproduced
// verbatim: the wire package must stay byte-identical to it, or every
// result-cache key changes meaning across an upgrade.
func legacyParamsKey(params map[string]epgm.PropertyValue) string {
	if len(params) == 0 {
		return ""
	}
	names := make([]string, 0, len(params))
	for name := range params {
		names = append(names, name)
	}
	sort.Strings(names)
	var buf []byte
	for _, name := range names {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(name)))
		buf = append(buf, name...)
		buf = params[name].Encode(buf)
	}
	return string(buf)
}

func TestAppendParamsMatchesLegacyEncoding(t *testing.T) {
	for _, params := range []map[string]epgm.PropertyValue{
		nil,
		{},
		sampleParams(),
		{"x": epgm.PVString("")},
	} {
		got := string(AppendParams(nil, params))
		want := legacyParamsKey(params)
		if got != want {
			t.Fatalf("AppendParams(%v) = %q, legacy = %q", params, got, want)
		}
	}
}

func TestParamsRoundTrip(t *testing.T) {
	params := sampleParams()
	blob := AppendParams(nil, params)
	got, err := ReadParams(blob)
	if err != nil {
		t.Fatalf("ReadParams: %v", err)
	}
	if len(got) != len(params) {
		t.Fatalf("round trip lost entries: got %v", got)
	}
	for name, want := range params {
		g := got[name]
		if g.Type() != want.Type() || g.String() != want.String() {
			t.Fatalf("param %q: got %v, want %v", name, g, want)
		}
	}
	if m, err := ReadParams(nil); err != nil || m != nil {
		t.Fatalf("ReadParams(nil) = %v, %v", m, err)
	}
}

func TestParamsReadRejectsCorruption(t *testing.T) {
	blob := AppendParams(nil, sampleParams())
	for cut := 1; cut < len(blob); cut++ {
		if _, err := ReadParams(blob[:cut]); err == nil {
			// Some prefixes happen to be self-delimiting only if they end
			// exactly on a pair boundary; anything else must error.
			if !validPairBoundary(blob[:cut]) {
				t.Fatalf("ReadParams accepted torn blob of %d/%d bytes", cut, len(blob))
			}
		}
	}
}

// validPairBoundary reports whether b is a whole number of name/value pairs.
func validPairBoundary(b []byte) bool {
	for len(b) > 0 {
		if len(b) < 4 || uint32(len(b)-4) < binary.BigEndian.Uint32(b) {
			return false
		}
		b = b[4+binary.BigEndian.Uint32(b):]
		_, used, err := epgm.DecodePropertyValue(b)
		if err != nil {
			return false
		}
		b = b[used:]
	}
	return true
}
