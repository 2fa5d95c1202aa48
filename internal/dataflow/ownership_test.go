package dataflow

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"gradoop/internal/govern"
	"gradoop/internal/trace"
)

// exchangeConsumers runs every consumer of the engine's one exchange once -
// a plain shuffle, a tagged JoinWith and a second one that reuses its
// partitioning, Build and Probe, OuterJoinWith, SemiJoinWith, a BroadcastLeft
// join, a data-dependent BulkIteration and a UnionAll of equally tagged
// operands - and returns their results in that order. Every key is a uint64
// the caller hashes: a grouping key would go through stableKey, which hashes
// differently with a transport on purpose. With emptyOperand it also unions a
// tagged dataset with an empty untagged one and joins the result under the
// tag: whether that join shuffles is the one thing ownership decides (the
// union keeps the tag only where emptiness is global), so rows are the same
// everywhere and the stage count only where nobody else owns a partition.
func exchangeConsumers(e *Env, n int, emptyOperand bool) []*Dataset[wrec] {
	const tag = 7
	src := make([]wrec, n)
	for i := range src {
		src[i] = wrec{K: uint64(i % 97), V: int64(i)}
	}
	dims := make([]wrec, 13)
	for i := range dims {
		dims[i] = wrec{K: uint64(i), V: int64(100 + i)}
	}
	d, dimsDS := FromSlice(e, src), FromSlice(e, dims)
	key := func(r wrec) uint64 { return r.K }
	mod := func(r wrec) uint64 { return r.K % 13 }
	sum := func(*Lane) func(l, r wrec, emit func(wrec)) {
		return func(l, r wrec, emit func(wrec)) { emit(wrec{K: l.K, V: l.V + r.V}) }
	}

	shuffled := shuffle(d, key)
	tagged := JoinWith(d, dimsDS, mod, key, sum, RepartitionHash, tag)
	reused := JoinWith(tagged, dimsDS, mod, key, sum, RepartitionHash, tag)
	probed := Probe(Build(dimsDS, key), d, mod, sum)
	// Dimensions 0..6 only: half the probe rows come out padded.
	few := Filter(dimsDS, func(r wrec) bool { return r.K < 7 })
	outer := OuterJoinWith(few, d, key, mod, func(*Lane) (func(l, r wrec, emit func(wrec)), func(r wrec, emit func(wrec))) {
		matched := false
		return func(l, r wrec, emit func(wrec)) { matched = true; emit(wrec{K: r.K, V: r.V + l.V}) },
			func(r wrec, emit func(wrec)) {
				if !matched {
					emit(wrec{K: r.K, V: -1})
				}
				matched = false
			}
	})
	semi := SemiJoinWith(few, d, key, mod, func(*Lane) (func(l, r wrec) bool, func(r wrec, emit func(wrec))) {
		found := false
		return func(l, r wrec) bool { found = true; return true },
			func(r wrec, emit func(wrec)) {
				if found {
					emit(r)
				}
				found = false
			}
	})
	bcast := JoinWith(dimsDS, d, key, mod, sum, BroadcastLeft, 0)
	// The number of supersteps depends on the data, so the processes of a job
	// agree on it only through GlobalIsEmpty's all-gathered counts.
	iterated := BulkIteration(shuffled, nil, 64, func(_ int, w *Dataset[wrec]) (*Dataset[wrec], *Dataset[wrec]) {
		return Map(Filter(w, func(r wrec) bool { return r.V >= 100 }), func(r wrec) wrec { return wrec{K: r.K, V: r.V / 2} }),
			Filter(w, func(r wrec) bool { return r.V < 100 })
	})
	union := JoinWith(UnionAll(tagged, reused), dimsDS, mod, key, sum, RepartitionHash, tag)
	out := []*Dataset[wrec]{shuffled, tagged, reused, probed, outer, semi, bcast, iterated, union}
	if emptyOperand {
		none := Filter(d, func(wrec) bool { return false })
		out = append(out, JoinWith(UnionAll(tagged, none), dimsDS, mod, key, sum, RepartitionHash, tag))
	}
	return out
}

// procRun is what one run of a program left behind: every result dataset's
// partitions, each taken from the process that owns it, and per process the
// metrics and - with a tracer - the spans.
type procRun struct {
	parts   [][][]wrec // dataset, partition
	metrics []MetricsSnapshot
	spans   [][]trace.Span
	counts  []int64 // per dataset, GlobalCount as process 0 saw it
}

// runProcs runs prog on nprocs in-memory processes under the given
// partition->process assignment; a nil owner runs it in one process with no
// transport at all.
func runProcs(t *testing.T, workers int, owner []int, nprocs int, governed, traced bool, prog func(*Env) []*Dataset[wrec]) procRun {
	t.Helper()
	var c *memCluster
	if owner != nil {
		c = newMemCluster(owner, nprocs)
	}
	results := make([][]*Dataset[wrec], nprocs)
	run := procRun{metrics: make([]MetricsSnapshot, nprocs), spans: make([][]trace.Span, nprocs)}
	errs := make([]error, nprocs)
	var wg sync.WaitGroup
	for proc := 0; proc < nprocs; proc++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := NewEnv(DefaultConfig(workers))
			if c != nil {
				e.SetTransport(c.transport(proc))
			}
			if governed {
				r := govern.NewBroker(1<<30, govern.ShedSelf).Begin("test-job")
				defer r.Release()
				e.SetGovernor(r)
			}
			var col *trace.Collector
			if traced {
				col = trace.NewCollector()
				e.SetTracer(col)
			}
			results[proc] = prog(e)
			for _, d := range results[proc] {
				n := d.GlobalCount() // a collective: every process comes
				if proc == 0 {
					run.counts = append(run.counts, n)
				}
			}
			errs[proc] = e.Finish()
			run.metrics[proc] = e.Metrics()
			if traced {
				run.spans[proc] = col.Spans()
			}
		}()
	}
	wg.Wait()
	for proc, err := range errs {
		if err != nil {
			t.Fatalf("process %d failed: %v", proc, err)
		}
	}
	for i := range results[0] {
		parts := make([][]wrec, workers)
		for p := range parts {
			from := 0
			if owner != nil {
				from = owner[p]
			}
			parts[p] = results[from][i].parts[p]
		}
		run.parts = append(run.parts, parts)
	}
	return run
}

// sameRows holds got to want dataset by dataset and partition by partition:
// the same rows in the same order between the same partition boundaries.
func sameRows(t *testing.T, got, want procRun) {
	t.Helper()
	if len(got.parts) != len(want.parts) {
		t.Fatalf("%d result datasets, want %d", len(got.parts), len(want.parts))
	}
	for i := range want.parts {
		rows := 0
		for p := range want.parts[i] {
			g, w := got.parts[i][p], want.parts[i][p]
			rows += len(w)
			if len(g) != len(w) {
				t.Fatalf("dataset %d partition %d: %d rows, want %d", i, p, len(g), len(w))
			}
			for j := range w {
				if g[j] != w[j] {
					t.Fatalf("dataset %d partition %d row %d: got %+v, want %+v", i, p, j, g[j], w[j])
				}
			}
		}
		if rows == 0 {
			t.Fatalf("dataset %d is empty: the consumer is not exercised", i)
		}
		if got.counts[i] != int64(rows) || want.counts[i] != int64(rows) {
			t.Fatalf("dataset %d has %d rows, GlobalCount says %d and %d", i, rows, got.counts[i], want.counts[i])
		}
	}
}

// TestOwnsAllTransportIsInProcess is the fold's parity test: a job in one
// process is a cluster of one, so a transport whose one process owns all four
// partitions and no transport at all must run the same stages and shuffles
// and leave the same rows between the same partition boundaries, the same
// MetricsSnapshot (per-worker CPU, network, spill and - governed - memory)
// and the same per-partition charges in every span, over every consumer of
// the exchange, governed and not, traced and not.
func TestOwnsAllTransportIsInProcess(t *testing.T) {
	const workers, n = 4, 2000
	prog := func(e *Env) []*Dataset[wrec] { return exchangeConsumers(e, n, true) }
	for _, governed := range []bool{false, true} {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("governed=%v/traced=%v", governed, traced), func(t *testing.T) {
				want := runProcs(t, workers, nil, 1, governed, traced, prog)
				got := runProcs(t, workers, []int{0, 0, 0, 0}, 1, governed, traced, prog)
				sameRows(t, got, want)
				gm, wm := got.metrics[0], want.metrics[0]
				if !reflect.DeepEqual(gm, wm) {
					t.Errorf("metrics differ:\n one owner %+v\nno transport %+v", gm, wm)
				}
				if wm.Shuffles == 0 || wm.TotalNet == 0 || (wm.TotalMem != 0) != governed {
					t.Fatalf("the reference charged nothing to compare: %+v", wm)
				}
				gs, ws := got.spans[0], want.spans[0]
				if traced && int64(len(ws)) != wm.Stages {
					t.Fatalf("%d spans for %d stages", len(ws), wm.Stages)
				}
				if len(gs) != len(ws) {
					t.Fatalf("%d spans, want %d", len(gs), len(ws))
				}
				for i := range ws {
					g, w := gs[i], ws[i]
					if g.Stage != w.Stage || g.Kind != w.Kind || g.Shuffle != w.Shuffle || g.Iteration != w.Iteration ||
						len(g.Attempts) != len(w.Attempts) || !reflect.DeepEqual(g.Parts, w.Parts) {
						t.Errorf("span %d differs:\n one owner %s/%d %+v\nno transport %s/%d %+v", i, g.Kind, g.Stage, g.Parts, w.Kind, w.Stage, w.Parts)
					}
				}
			})
		}
	}
}

// ownerships is the matrix every cross-process property is held over.
var ownerships = []struct {
	name   string
	owner  []int
	nprocs int
}{
	{"2proc-contiguous", []int{0, 0, 1, 1}, 2},
	{"2proc-interleaved", []int{0, 1, 0, 1}, 2},
	{"2proc-skewed", []int{0, 1, 1, 1}, 2},
	{"4proc", []int{0, 1, 2, 3}, 4},
}

// TestOwnershipMatrix: over every consumer of the exchange, any ownership
// assignment leaves the sole owner's rows between the sole owner's partition
// boundaries, and - each process charging its owned partitions only - the
// processes' per-worker CPU, network, spill and governed memory add up to the
// sole owner's.
func TestOwnershipMatrix(t *testing.T) {
	const workers, n = 4, 2000
	prog := func(e *Env) []*Dataset[wrec] { return exchangeConsumers(e, n, false) }
	want := runProcs(t, workers, []int{0, 0, 0, 0}, 1, true, false, prog)
	ref := want.metrics[0]
	if ref.TotalMem == 0 || ref.TotalNet == 0 {
		t.Fatalf("the reference charged nothing to compare: %+v", ref)
	}
	for _, tc := range ownerships {
		t.Run(tc.name, func(t *testing.T) {
			got := runProcs(t, workers, tc.owner, tc.nprocs, true, false, prog)
			sameRows(t, got, want)
			sum := MetricsSnapshot{
				CPUElements: make([]int64, workers), NetBytes: make([]int64, workers),
				SpillBytes: make([]int64, workers), MemBytes: make([]int64, workers),
			}
			for proc, m := range got.metrics {
				if m.Stages != ref.Stages || m.Shuffles != ref.Shuffles {
					t.Errorf("process %d ran %d stages and %d shuffles, the sole owner %d and %d", proc, m.Stages, m.Shuffles, ref.Stages, ref.Shuffles)
				}
				for p := 0; p < workers; p++ {
					if tc.owner[p] != proc && m.CPUElements[p]+m.NetBytes[p]+m.SpillBytes[p]+m.MemBytes[p] != 0 {
						t.Errorf("process %d charged partition %d, which it does not own", proc, p)
					}
					sum.CPUElements[p] += m.CPUElements[p]
					sum.NetBytes[p] += m.NetBytes[p]
					sum.SpillBytes[p] += m.SpillBytes[p]
					sum.MemBytes[p] += m.MemBytes[p]
				}
			}
			for _, c := range []struct {
				what      string
				got, want []int64
			}{
				{"CPU elements", sum.CPUElements, ref.CPUElements}, {"network bytes", sum.NetBytes, ref.NetBytes},
				{"spill bytes", sum.SpillBytes, ref.SpillBytes}, {"governed memory", sum.MemBytes, ref.MemBytes},
			} {
				if !reflect.DeepEqual(c.got, c.want) {
					t.Errorf("merged %s per worker %v, the sole owner's %v", c.what, c.got, c.want)
				}
			}
		})
	}
}

// bucketTransport is a process that owns partitions 0 and 1 of four and whose
// peer sends, for every exchange, the buckets it was made with.
type bucketTransport struct{ incoming [][][]byte }

func (bucketTransport) Owns(p int) bool { return p < 2 }
func (b bucketTransport) Exchange(int64, [][]Bucket) ([][][]byte, error) {
	return b.incoming, nil
}
func (bucketTransport) AllGather(int64, []Bucket) ([][]byte, error) { return nil, nil }

// TestForeignBucketFailsTheExchange: what arrives from another process is
// checked before and while it is decoded. A bucket with bytes behind its
// last row, one cut short, one whose header counts a row it does not have and
// one with no header each fail the job with the destination partition and
// "from partition p" - and the exchange hands back no partition at all, not
// the ones it had already written.
func TestForeignBucketFailsTheExchange(t *testing.T) {
	foreign := func(p, q int) []wrec { // source p's rows for destination q
		return []wrec{{K: uint64(q), V: int64(10 * p)}, {K: uint64(q), V: int64(10*p + 1)}}
	}
	run := func(tamper func(p, q int, b []byte) []byte) (*Env, *Dataset[wrec]) {
		incoming := make([][][]byte, 4)
		for q := 0; q < 2; q++ {
			incoming[q] = make([][]byte, 4)
			for p := 2; p < 4; p++ {
				b, err := encodeBucket(foreign(p, q))
				if err != nil {
					t.Fatal(err)
				}
				incoming[q][p] = tamper(p, q, b)
			}
		}
		e := NewEnv(DefaultConfig(4))
		e.SetTransport(bucketTransport{incoming: incoming})
		src := make([]wrec, 40)
		for i := range src {
			src[i] = wrec{K: uint64(i % 4), V: int64(i)}
		}
		// Row K goes to partition K: the identity undoes the shuffle's mixer
		// for the four keys there are.
		dest := map[uint64]uint64{}
		for k := uint64(0); len(dest) < 4; k++ {
			if _, ok := dest[mix64(k)%4]; !ok {
				dest[mix64(k)%4] = k
			}
		}
		return e, shuffle(FromSlice(e, src), func(r wrec) uint64 { return dest[r.K] })
	}

	e, out := run(func(_, _ int, b []byte) []byte { return b })
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 4; q++ {
		var want []wrec
		if q < 2 {
			for i := 0; i < 20; i++ { // the owned sources 0 and 1 hold rows 0..19
				if i%4 == q {
					want = append(want, wrec{K: uint64(q), V: int64(i)})
				}
			}
			want = append(append(want, foreign(2, q)...), foreign(3, q)...)
		}
		if !reflect.DeepEqual(out.parts[q], want) {
			t.Fatalf("partition %d: got %v, want %v", q, out.parts[q], want)
		}
	}

	for _, tc := range []struct {
		name, want string
		tamper     func(b []byte) []byte
	}{
		{"corrupt", "trailing bytes", func(b []byte) []byte { return append(b[:len(b):len(b)], 0xde, 0xad) }},
		{"truncated", "truncated wrec", func(b []byte) []byte { return b[:len(b)-5] }},
		{"miscounted", "bucket element 2/3", func(b []byte) []byte {
			return append(binary.BigEndian.AppendUint32(nil, 3), b[4:]...) // three, over the same two rows
		}},
		{"headless", "truncated bucket header", func(b []byte) []byte { return b[:3] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The bad bucket is the last one decoded: source 3's for destination 1.
			e, out := run(func(p, q int, b []byte) []byte {
				if p != 3 || q != 1 {
					return b
				}
				return tc.tamper(b)
			})
			var je *JobError
			if err := e.Err(); !errors.As(err, &je) || je.Partition != 1 ||
				!strings.Contains(err.Error(), "from partition 3") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want a JobError of partition 1, from partition 3, %q; got %v", tc.want, err)
			}
			for q, part := range out.parts {
				if len(part) != 0 {
					t.Errorf("partition %d was handed on with %d rows by a failed exchange", q, len(part))
				}
			}
		})
	}
}
