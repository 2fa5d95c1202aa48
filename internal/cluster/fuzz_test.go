package cluster

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// FuzzDecodeTelemetryBundle: a bundle arrives off a socket from another
// process, so any bytes must decode or be an error - never a panic, and never
// more elements than the input has bytes for, whatever its counts claim. What
// does decode has exactly one encoding: it re-encodes to the bytes it came
// from.
func FuzzDecodeTelemetryBundle(f *testing.F) {
	golden, _ := hex.DecodeString(goldenBundleHex)
	f.Add(golden)
	tb := testBundle()
	f.Add(encodeTelemetryBundle(&tb))
	f.Add(encodeTelemetryBundle(&telemetryBundle{}))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		b, err := decodeTelemetryBundle(raw)
		if err != nil {
			return
		}
		elems := len(b.Spans) + len(b.Metrics.Families)
		for i := range b.Spans {
			elems += len(b.Spans[i].Parts) + len(b.Spans[i].Attempts)
		}
		for i := range b.Metrics.Families {
			fam := &b.Metrics.Families[i]
			elems += len(fam.Samples)
			for j := range fam.Samples {
				elems += len(fam.Samples[j].Labels)
			}
		}
		if elems > len(raw) {
			t.Fatalf("%d bytes decoded to %d elements", len(raw), elems)
		}
		if again := encodeTelemetryBundle(b); !bytes.Equal(again, raw) {
			t.Fatalf("decoded bundle re-encodes differently\n  in %x\n out %x", raw, again)
		}
	})
}
