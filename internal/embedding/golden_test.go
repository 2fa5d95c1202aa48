package embedding

import (
	"encoding/hex"
	"testing"

	"gradoop/internal/epgm"
)

// goldenRow has one column of every kind and one property of every type.
func goldenRow() Embedding {
	var e Embedding
	e = nullCol(e.AppendID(10)).AppendPath([]epgm.ID{5, 20, 7}).AppendID(1 << 40)
	return e.AppendProps(epgm.Null, epgm.PVBool(true), epgm.PVInt(-1984), epgm.PVFloat(2.5), epgm.PVString("Leipzig"))
}

// The accounted size was recorded with the three-slice embedding and must not
// move, or the cost model's network bytes do. The wire form was re-pinned
// once, with protocol version 2 (DESIGN decision 21): it is the row's buffer
// behind one length, where version 1 put a length in front of each array.
const (
	goldenWireHex   = "00000069000000240000001c00000000000000000a0200000000000000000100000000000000000000000100000000000000000300000000000000050000000000000014000000000000000700010102fffffffffffff84003400400000000000004000000074c6569707a6967"
	goldenSizeBytes = 97
)

func TestWireFormatGolden(t *testing.T) {
	e := goldenRow()
	if got := hex.EncodeToString(e.AppendWire(nil)); got != goldenWireHex {
		t.Errorf("AppendWire:\n got  %s\n want %s", got, goldenWireHex)
	}
	if got := e.SizeBytes(); got != goldenSizeBytes {
		t.Errorf("SizeBytes = %d, want %d", got, goldenSizeBytes)
	}
	var empty Embedding
	if got := hex.EncodeToString(empty.AppendWire(nil)); got != "00000000" {
		t.Errorf("empty AppendWire = %s", got)
	}
	if got := empty.SizeBytes(); got != 0 {
		t.Errorf("empty SizeBytes = %d, want 0", got)
	}
}
