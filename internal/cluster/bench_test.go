package cluster

import (
	"bufio"
	"bytes"
	"runtime"
	"testing"

	"gradoop/internal/dataflow"
	"gradoop/internal/embedding"
	"gradoop/internal/epgm"
	"gradoop/internal/field"
)

// BenchmarkRowFrame is the wire kernel of make alloc-guard: one worker's
// share of a shuffle, from rows to rows. A partition of embedding-shaped rows
// is bucketed four ways, each bucket is encoded, the four are framed for the
// peer that owns the destinations, and the frame is read back off a reader
// and decoded into the four destination partitions. Every wire byte is
// allocated once on each side (the encoded bucket, the frame body) and the
// rows are views of the body, so what is left is a fixed handful per bucket:
// hundredths of an allocation per row.
func BenchmarkRowFrame(b *testing.B) {
	const rows, ways = 20_000, 4
	var slab embedding.Slab
	part := make([]embedding.Embedding, rows)
	for i := range part {
		part[i] = slab.Row([]epgm.ID{epgm.ID(i), epgm.ID(i + rows)},
			[]epgm.PropertyValue{epgm.PVString("Alice"), epgm.PVInt(int64(1980 + i%30))})
	}
	// Member 0 owns the source partition, member 1 the four destinations.
	owner := []int{0, 1, 1, 1, 1}
	var socket bytes.Buffer
	br := bufio.NewReaderSize(&socket, 64<<10)
	step := func() {
		counts := make([]int, ways)
		for i := range part {
			counts[i%ways]++
		}
		buckets := make([][]embedding.Embedding, ways)
		for q := range buckets {
			buckets[q] = make([]embedding.Embedding, 0, counts[q])
		}
		for i := range part {
			buckets[i%ways] = append(buckets[i%ways], part[i])
		}
		outgoing := [][][]byte{make([][]byte, 1+ways)}
		for q, bucket := range buckets {
			blob, err := dataflow.EncodeBucket(bucket)
			if err != nil {
				b.Fatal(err)
			}
			outgoing[0][1+q] = blob
		}
		payload := exchangePayload(owner, 0, 1, outgoing)
		head := dataFrame{JobID: 1, Seq: 1, Kind: kindExchange, crc: checksum(payload[1:]...)}
		hc := field.Appender(nil)
		head.layout(&hc)
		payload[0] = hc.Bytes()
		if err := writeFrame(&socket, frameData, payload...); err != nil {
			b.Fatal(err)
		}

		_, frame, err := readFrame(br)
		if err != nil {
			b.Fatal(err)
		}
		var f dataFrame
		fc := field.Reader(frame)
		f.layout(&fc)
		body, err := checkedBody(&fc, f.crc)
		if err != nil {
			b.Fatal(err)
		}
		incoming := make([][][]byte, 1+ways)
		for q := 1; q <= ways; q++ {
			incoming[q] = make([][]byte, 1+ways)
		}
		if err := splitExchange(owner, 1, 0, body, incoming); err != nil {
			b.Fatal(err)
		}
		got := 0
		for q := 1; q <= ways; q++ {
			n, err := dataflow.BucketCount(incoming[q][0])
			if err != nil {
				b.Fatal(err)
			}
			dst := make([]embedding.Embedding, n)
			if err := dataflow.DecodeBucket(dst, incoming[q][0]); err != nil {
				b.Fatal(err)
			}
			got += len(dst)
		}
		if got != rows {
			b.Fatalf("%d rows arrived, want %d", got, rows)
		}
	}
	step()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N)/rows, "allocs/row")
}
