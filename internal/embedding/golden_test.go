package embedding

import (
	"encoding/hex"
	"testing"

	"gradoop/internal/epgm"
)

// goldenRow has one column of every kind and one property of every type.
func goldenRow() Embedding {
	var e Embedding
	e = e.AppendID(10).AppendNull().AppendPath([]epgm.ID{5, 20, 7}).AppendID(1 << 40)
	return e.AppendProps(epgm.Null, epgm.PVBool(true), epgm.PVInt(-1984), epgm.PVFloat(2.5), epgm.PVString("Leipzig"))
}

// The wire form and the accounted size were recorded with the three-slice
// embedding; the single-buffer layout must not show in either, or shuffle
// frames stop being readable across versions and the cost model's network
// bytes move.
const (
	goldenWireHex   = "0000002400000000000000000a0200000000000000000100000000000000000000000100000000000000001c000000030000000000000005000000000000001400000000000000070000002100010102fffffffffffff84003400400000000000004000000074c6569707a6967"
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
	if got := hex.EncodeToString(empty.AppendWire(nil)); got != "000000000000000000000000" {
		t.Errorf("empty AppendWire = %s", got)
	}
	if got := empty.SizeBytes(); got != 0 {
		t.Errorf("empty SizeBytes = %d, want 0", got)
	}
}
