package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"runtime"
	"testing"

	"gradoop/internal/benchkit"
	"gradoop/internal/core"
	"gradoop/internal/dataflow"
	"gradoop/internal/embedding"
	"gradoop/internal/epgm"
	"gradoop/internal/field"
	"gradoop/internal/operators"
	"gradoop/internal/session"
	"gradoop/internal/stats"
	"gradoop/internal/trace"
	"gradoop/internal/wire"
)

// BenchmarkRowFrame is the wire kernel of make alloc-guard: one worker's
// share of a shuffle, from rows to rows. What a source partition owes four
// destinations of one peer - four buckets of embedding-shaped rows - is framed
// for the peer, written into the connection's buffer a row at a time, read
// back off a reader, split, and decoded into the four destination partitions.
// The sending side allocates a fixed handful per frame whatever its rows, and
// the rows are views of the frame body, so what is left is hundredths of an
// allocation a row and, in bytes, the receiving copy. The coordinator reads a
// frame into a body of its own (readFrame with no arena, as for a result):
// B/row is held to wireB/row plus 10 %. A worker reads it into an attempt's
// receive arena, and the attempt ends every op: its buffers go back to the
// worker, and the next op's attempt carves from them, so B/row is about 0.
func BenchmarkRowFrame(b *testing.B) {
	const rows, ways = 20_000, 4
	var slab embedding.Slab
	// Member 0 owns source partition 0, member 1 the four destinations; what 0
	// owes destination q is the rows of partition q of the dataset (the routes
	// that pick them out of one partition are the engine's, not the wire's).
	owner := []int{0, 1, 1, 1, 1}
	parts := make([][]embedding.Embedding, len(owner))
	for i := 0; i < rows; i++ {
		q := 1 + i%ways
		parts[q] = append(parts[q], slab.Row([]epgm.ID{epgm.ID(i), epgm.ID(i + rows)},
			[]epgm.PropertyValue{epgm.PVString("Alice"), epgm.PVInt(int64(1980 + i%30))}))
	}
	d := dataflow.FromPartitions(dataflow.NewEnv(dataflow.DefaultConfig(len(owner))), parts)
	outgoing := [][]dataflow.Bucket{make([]dataflow.Bucket, len(owner))}
	dst := make([][]embedding.Embedding, len(owner))
	for q := 1; q <= ways; q++ {
		var err error
		if outgoing[0][q], err = d.Bucket(q); err != nil {
			b.Fatal(err)
		}
		dst[q] = make([]embedding.Embedding, len(parts[q]))
	}
	var socket bytes.Buffer
	fw := newFrameWriter(&socket)
	br := bufio.NewReaderSize(&socket, 64<<10)
	wire := 0
	step := func(w *Worker) {
		head := dataFrame{JobID: 1, Seq: 1, Kind: kindExchange}
		hc := field.Appender(nil)
		head.layout(&hc)
		if err := fw.frame(&outFrame{typ: frameData, head: hc.Bytes(), body: exchangeBody(owner, 0, 1, outgoing)}); err != nil {
			b.Fatal(err)
		}
		if err := fw.bw.Flush(); err != nil {
			b.Fatal(err)
		}

		var frame []byte
		var err error
		var rt *jobRuntime
		if w == nil {
			_, frame, err = readFrame(br, nil)
		} else {
			rt = newJobRuntime(w, jobKey{job: 1})
			_, frame, err = readFrame(br, rt)
		}
		if err != nil {
			b.Fatal(err)
		}
		wire = frameHeader + len(frame)
		var f dataFrame
		fc := field.Reader(frame)
		f.layout(&fc)
		body, err := checkedBody(&fc)
		if err != nil {
			b.Fatal(err)
		}
		incoming := make([][][]byte, len(owner))
		for q := 1; q <= ways; q++ {
			incoming[q] = make([][]byte, len(owner))
		}
		if err := splitExchange(owner, 1, 0, body, incoming); err != nil {
			b.Fatal(err)
		}
		got := 0
		for q := 1; q <= ways; q++ {
			if err := dataflow.DecodeBucket(dst[q], incoming[q][0]); err != nil {
				b.Fatal(err)
			}
			got += len(dst[q])
		}
		if got != rows {
			b.Fatalf("%d rows arrived, want %d", got, rows)
		}
		if rt != nil {
			rt.readEnded()
			w.dropRuntime(rt)
		}
	}
	for _, side := range []struct {
		name   string
		worker *Worker
	}{{"coordinator", nil}, {"worker", NewWorkerWith("w1", nil, WorkerOptions{})}} {
		b.Run(side.name, func(b *testing.B) {
			defer func(was bool) { scribbleSpare = was }(scribbleSpare)
			scribbleSpare = false // a test's net, not the kernel's cost
			step(side.worker)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step(side.worker)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N)/rows, "allocs/row")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/rows, "B/row")
			b.ReportMetric(float64(wire)/rows, "wireB/row")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
		})
	}
}

// BenchmarkWorkerPlanHit is what a worker pays for an attempt between its links
// and its run when the plan is in its cache - every job of a query but its
// first on a statistics snapshot: the parameters decoded, the plan looked up
// and held to the coordinator's fingerprint, a fresh environment and the pinned
// graph bound to it (bindJob). `make alloc-guard` pins its allocations per
// yardstick query.
func BenchmarkWorkerPlanHit(b *testing.B) {
	g := tinyGraph()
	st := stats.Collect(g)
	data := session.NewGraphData(g)
	w := NewWorkerWith("w0", data, WorkerOptions{})
	payload, err := json.Marshal(statsMsg{ID: 1, Stats: st})
	if err != nil {
		b.Fatal(err)
	}
	snap := w.receiveStats(payload)
	rt := newJobRuntime(w, jobKey{job: 1})
	col := trace.NewCollector()
	morph := operators.Morphism{Vertex: operators.Homomorphism, Edge: operators.Isomorphism}
	for _, q := range benchkit.AllQueries {
		query := session.CanonicalQuery(q.Text())
		// Prepared as the coordinator's session prepares it, for its store.
		prep, err := core.PrepareWith(st, query, core.Config{Vertex: morph.Vertex, Edge: morph.Edge, Access: data.Access()})
		if err != nil {
			b.Fatal(err)
		}
		spec := &jobSpec{JobID: 1, Query: query, Snapshot: 1, Workers: 4, Owner: []int{0, 0, 0, 0},
			Procs: []procSpec{{Node: "w0"}}, Vertex: int(morph.Vertex), Edge: int(morph.Edge), Fingerprint: prep.Fingerprint()}
		if q.Operational() {
			spec.Params = wire.AppendParams(nil, map[string]epgm.PropertyValue{"firstName": epgm.PVString("Jan")})
		}
		pt, err := w.transport(spec, rt)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := w.bindJob(spec, snap, pt, col); err != nil { // the miss that plans
			b.Fatal(err)
		}
		b.Run(q.String(), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := w.bindJob(spec, snap, pt, col); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWorkerReport is what the done report of an untraced successful
// attempt costs, worker and coordinator together: the stage table read from
// the attempt's collector in place, the report encoded, and decoded as the
// coordinator's read loop does. The collector is a run of a two-hop join over
// tinyGraph on four partitions. `make alloc-guard` pins its allocations.
func BenchmarkWorkerReport(b *testing.B) {
	g := tinyGraph()
	prep, err := core.PrepareWith(stats.Collect(g), joinQuery, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	col := trace.NewCollector()
	res, err := prep.Execute(g, core.Config{Trace: col})
	if err != nil {
		b.Fatal(err)
	}
	metrics := res.Env.Metrics()
	cost := dataflow.DefaultConfig(4).Cost()
	wireOut := map[int64]int64{}
	b.ReportAllocs()
	for b.Loop() {
		done := jobDone{ElapsedNs: 1, Stages: stageRecords(col, cost, wireOut), Metrics: metrics}
		if _, err := decodeJobDone(encodeJobDone(&done)); err != nil {
			b.Fatal(err)
		}
	}
}
