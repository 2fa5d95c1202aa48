package operators

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"gradoop/internal/dataflow"
	"gradoop/internal/embedding"
	"gradoop/internal/epgm"
)

// encodeBucket writes rows as one bucket, a piece at a time as a connection's
// buffer takes it, and holds what was written to the length the bucket
// declared: the length a frame is sent behind.
func encodeBucket[T any](rows []T) ([]byte, error) {
	b, err := dataflow.FromSlice(dataflow.NewEnv(dataflow.DefaultConfig(1)), rows).Bucket(0)
	if err != nil {
		return nil, err
	}
	var w appendWriter
	if err := b.Encode(&w); err != nil {
		return nil, err
	}
	if len(w) != b.WireSize() {
		return nil, fmt.Errorf("a bucket of %d bytes declared %d", len(w), b.WireSize())
	}
	return w, nil
}

// appendWriter is a dataflow.BucketWriter that keeps what it is written.
type appendWriter []byte

func (a *appendWriter) Buffer(n int) []byte { return slices.Grow(*a, n)[len(*a):] }

func (a *appendWriter) Write(piece []byte) error {
	*a = append(*a, piece...)
	return nil
}

// decodeBucket is what a receiver does with an encoded bucket: count,
// allocate, read in place.
func decodeBucket[T any](b []byte) ([]T, error) {
	n, err := dataflow.BucketCount(b)
	if err != nil {
		return nil, err
	}
	out := make([]T, n)
	return out, dataflow.DecodeBucket(out, b)
}

func wireRows() []embedding.Embedding {
	var e embedding.Embedding
	return []embedding.Embedding{
		e.AppendID(1).AppendProps(epgm.PVString("Leipzig")),
		{}, // the empty embedding travels as its length alone
		(*embedding.Slab)(nil).PadNull(e.AppendID(2), embedding.Keep{}, 1, 0).AppendPath([]epgm.ID{5, 20, 7}).AppendProps(epgm.Null, epgm.PVInt(-1984)),
	}
}

func wireStates() []pathState {
	rows := wireRows()
	return []pathState{
		{base: rows[0], end: 9},
		{base: rows[2], via: []epgm.ID{11, 12, 13}, end: 14},
		{base: rows[1], via: []epgm.ID{15}, end: 16},
	}
}

// TestPathStateIsFiveWords: an expansion's working set is one pathState per
// open path per hop; its base row is one word (embedding's
// TestEmbeddingIsOneWord), which leaves the via list's header, and the end.
func TestPathStateIsFiveWords(t *testing.T) {
	if got := unsafe.Sizeof(pathState{}); got != 40 {
		t.Fatalf("unsafe.Sizeof(pathState{}) = %d, want 40", got)
	}
}

// bucketOf frames rows behind a count that may lie.
func bucketOf(count uint32, rows ...[]byte) []byte {
	b := binary.BigEndian.AppendUint32(nil, count)
	for _, r := range rows {
		b = append(b, r...)
	}
	return b
}

// TestBucketRoundTrip: every element type that crosses a remote exchange
// reads back what was written, and writes exactly the bytes its WireSize
// declared (encodeBucket holds it to that).
func TestBucketRoundTrip(t *testing.T) {
	rows := wireRows()
	enc, err := encodeBucket(rows)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeBucket[embedding.Embedding](enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if back[i].String() != rows[i].String() || back[i].SizeBytes() != rows[i].SizeBytes() {
			t.Errorf("row %d: %s, want %s", i, back[i], rows[i])
		}
	}

	triples := []edgeTriple{{S: 1, E: 2, T: 3}, {S: 1 << 40, E: 5, T: 6}}
	if enc, err = encodeBucket(triples); err != nil {
		t.Fatal(err)
	}
	if gotT, err := decodeBucket[edgeTriple](enc); err != nil || !reflect.DeepEqual(gotT, triples) {
		t.Errorf("edge triples: %v, %v", gotT, err)
	}

	states := wireStates()
	if enc, err = encodeBucket(states); err != nil {
		t.Fatal(err)
	}
	gotS, err := decodeBucket[pathState](enc)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range states {
		g := gotS[i]
		if g.base.String() != s.base.String() || !reflect.DeepEqual(g.via, s.via) || g.end != s.end {
			t.Errorf("path state %d: %+v, want %+v", i, g, s)
		}
		if cap(g.via) != len(g.via) {
			t.Errorf("path state %d: via list decoded with cap %d != len %d", i, cap(g.via), len(g.via))
		}
	}
	// The via lists of one decode come from one chunk source: appending to
	// one reallocates, it does not write into the next.
	_ = append(gotS[1].via, 99)
	if gotS[2].via[0] != 15 {
		t.Error("append to a decoded via list reached its neighbour")
	}
}

// TestDecodeBucketHostile: buckets come off a socket. Each of these is a
// structured error or the right rows - never a panic, an over-read or an
// allocation sized by a hostile count.
func TestDecodeBucketHostile(t *testing.T) {
	rows := wireRows()
	r0, r2 := rows[0].AppendWire(nil), rows[2].AppendWire(nil)
	state := wireStates()[1].AppendWire(nil)
	for _, tc := range []struct {
		name    string
		decode  func([]byte) (int, error)
		in      []byte
		want    int
		wantErr string
	}{
		{"no header", rowsOf[embedding.Embedding], []byte{0, 0, 1}, 0, "truncated bucket header"},
		{"zero rows", rowsOf[embedding.Embedding], bucketOf(0), 0, ""},
		{"zero rows, trailing bytes", rowsOf[embedding.Embedding], bucketOf(0, []byte{7}), 0, "trailing"},
		{"count past the payload", rowsOf[embedding.Embedding], bucketOf(1<<30, r0), 0, "exceeds payload"},
		{"count of all ones", rowsOf[embedding.Embedding], bucketOf(0xffffffff), 0, "exceeds payload"},
		{"one row more than there is", rowsOf[embedding.Embedding], bucketOf(3, r0, r2), 0, "element 2/3"},
		{"row length past the bucket end", rowsOf[embedding.Embedding], bucketOf(2, r0, r2[:len(r2)-1]), 0, "element 1/2"},
		{"trailing bytes", rowsOf[embedding.Embedding], bucketOf(2, r0, r2, []byte{0}), 0, "trailing"},
		{"empty embeddings only", rowsOf[embedding.Embedding], bucketOf(2, rows[1].AppendWire(nil), rows[1].AppendWire(nil)), 2, ""},
		{"rows", rowsOf[embedding.Embedding], bucketOf(2, r0, r2), 2, ""},
		{"triple cut short", rowsOf[edgeTriple], bucketOf(1, make([]byte, 23)), 0, "truncated edge triple"},
		{"path state without via count", rowsOf[pathState], bucketOf(1, r0), 0, "via count"},
		{"path state via count past the end", rowsOf[pathState], bucketOf(1, r0, []byte{0xff, 0xff, 0xff, 0xff}, make([]byte, 16)), 0, "truncated path state"},
		{"path state cut short", rowsOf[pathState], bucketOf(1, state[:len(state)-1]), 0, "truncated path state"},
		{"path state over a corrupt base", rowsOf[pathState], bucketOf(1, []byte{0, 0, 0, 5, 1, 2, 3, 4, 5}), 0, "path state base"},
		{"path state", rowsOf[pathState], bucketOf(1, state), 1, ""},
	} {
		n, err := tc.decode(tc.in)
		switch {
		case tc.wantErr == "" && (err != nil || n != tc.want):
			t.Errorf("%s: %d rows, %v; want %d", tc.name, n, err, tc.want)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: got %v, want an error with %q", tc.name, err, tc.wantErr)
		}
	}
}

func rowsOf[T any](b []byte) (int, error) {
	rows, err := decodeBucket[T](b)
	return len(rows), err
}

// FuzzDecodeBucket: whatever the bytes, decoding a bucket of any of the three
// element types that cross a remote exchange returns an error or rows that
// can be read and that survive being encoded and decoded again.
func FuzzDecodeBucket(f *testing.F) {
	rows, _ := encodeBucket(wireRows())
	triples, _ := encodeBucket([]edgeTriple{{S: 1, E: 2, T: 3}})
	states, _ := encodeBucket(wireStates())
	for _, seed := range [][]byte{rows, triples, states, bucketOf(0), bucketOf(2, []byte{0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 0}), nil} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		fuzzBucket[embedding.Embedding](t, b, func(e *embedding.Embedding) {
			// Everything the view's accessors index by was checked at decode.
			for c := 0; c < e.Columns(); c++ {
				if !e.IsPath(c) && !e.IsNullAt(c) {
					e.ID(c)
				}
			}
			e.SizeBytes()
		})
		fuzzBucket[edgeTriple](t, b, func(*edgeTriple) {})
		fuzzBucket[pathState](t, b, func(s *pathState) { s.SizeBytes() })
	})
}

func fuzzBucket[T any](t *testing.T, b []byte, touch func(*T)) {
	rows, err := decodeBucket[T](b)
	if err != nil {
		return
	}
	for i := range rows {
		touch(&rows[i])
	}
	again, err := encodeBucket(rows)
	if err != nil {
		t.Fatalf("re-encoding %d decoded rows: %v", len(rows), err)
	}
	back, err := decodeBucket[T](again)
	if err != nil || len(back) != len(rows) {
		t.Fatalf("decoded rows do not survive a round trip: %d rows, %v", len(back), err)
	}
}
