package dataflow

import (
	"errors"
	"strings"
	"sync"
	"testing"
)

// --- stable hash -----------------------------------------------------------

// TestStableHashGoldens pins StableHash values so a change to the hash
// pipeline cannot slip in silently: every process of a distributed job must
// compute these exact values or cross-process shuffles route the same key to
// different workers and groups split.
func TestStableHashGoldens(t *testing.T) {
	if got, want := StableHash("Person"), uint64(0x2f48fc53f6a675ac); got != want {
		t.Errorf("StableHash(\"Person\") = %#x, want %#x", got, want)
	}
	if got, want := StableHash(uint64(42)), uint64(0xa759ea27d4727622); got != want {
		t.Errorf("StableHash(uint64(42)) = %#x, want %#x", got, want)
	}
	if got, want := StableHash(int(-7)), uint64(0xdb9c3218f1acf6f3); got != want {
		t.Errorf("StableHash(int(-7)) = %#x, want %#x", got, want)
	}
	if got, want := StableHash(1.5), uint64(0xe72b41d4576e3468); got != want {
		t.Errorf("StableHash(1.5) = %#x, want %#x", got, want)
	}
	if got, want := StableHash(true), uint64(0x5692161d100b05e5); got != want {
		t.Errorf("StableHash(true) = %#x, want %#x", got, want)
	}
	if got, want := StableHash(""), uint64(0xf52a15e9a9b5e89b); got != want {
		t.Errorf("StableHash(\"\") = %#x, want %#x", got, want)
	}
}

// TestStableHashNamedTypes checks that named types hash identically to their
// underlying representation — epgm.ID keys must land on the same partition
// as the raw uint64 they wrap.
func TestStableHashNamedTypes(t *testing.T) {
	type myID uint64
	type myStr string
	type myF32 float32
	if got, want := StableHash(myID(42)), StableHash(uint64(42)); got != want {
		t.Errorf("named uint64 hashes %#x, underlying %#x", got, want)
	}
	if got, want := StableHash(myStr("Person")), StableHash("Person"); got != want {
		t.Errorf("named string hashes %#x, underlying %#x", got, want)
	}
	if got, want := StableHash(myF32(2.5)), StableHash(float32(2.5)); got != want {
		t.Errorf("named float32 hashes %#x, underlying %#x", got, want)
	}
	if StableHash(int64(-1)) != StableHash(int(-1)) {
		t.Errorf("int and int64 of the same value must agree")
	}
}

// TestStableHashStructFallback checks that the canonical-rendering fallback
// is deterministic and type-discriminating.
func TestStableHashStructFallback(t *testing.T) {
	type pair struct{ A, B int }
	if StableHash(pair{1, 2}) != StableHash(pair{1, 2}) {
		t.Fatal("struct hash not deterministic")
	}
	if StableHash(pair{1, 2}) == StableHash(pair{2, 1}) {
		t.Fatal("struct hash ignores field values")
	}
}

// --- in-memory multi-process cluster ---------------------------------------

// memCluster links N in-memory "processes" with a reusable rendezvous
// barrier: every collective call deposits its payload, the last arriver
// snapshots the round, and everyone reads the snapshot. It is the test
// double for the real TCP transport — same Transport contract, no sockets.
type memCluster struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	gen   uint64
	slots []any
	ready []any
	owner []int // logical partition -> process
}

func newMemCluster(owner []int, nprocs int) *memCluster {
	c := &memCluster{n: nprocs, slots: make([]any, nprocs), owner: owner}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// rendezvous blocks until every process has deposited this round's payload
// and returns all payloads indexed by process.
func (c *memCluster) rendezvous(proc int, v any) []any {
	c.mu.Lock()
	defer c.mu.Unlock()
	gen := c.gen
	c.slots[proc] = v
	c.count++
	if c.count == c.n {
		c.count = 0
		c.gen++
		c.ready = append([]any(nil), c.slots...)
		c.cond.Broadcast()
	} else {
		for gen == c.gen {
			c.cond.Wait()
		}
	}
	return c.ready
}

func (c *memCluster) transport(proc int) *memTransport {
	return &memTransport{c: c, proc: proc}
}

type memTransport struct {
	c    *memCluster
	proc int
}

func (t *memTransport) Owns(p int) bool { return t.c.owner[p] == t.proc }

func (t *memTransport) Exchange(stage int64, outgoing [][][]byte) ([][][]byte, error) {
	all := t.c.rendezvous(t.proc, outgoing)
	w := len(t.c.owner)
	in := make([][][]byte, w)
	for q := 0; q < w; q++ {
		if !t.Owns(q) {
			continue
		}
		in[q] = make([][]byte, w)
		for p := 0; p < w; p++ {
			if t.Owns(p) {
				continue
			}
			src := all[t.c.owner[p]].([][][]byte)
			in[q][p] = src[p][q]
		}
	}
	return in, nil
}

func (t *memTransport) AllGather(stage int64, blobs [][]byte) ([][]byte, error) {
	all := t.c.rendezvous(t.proc, blobs)
	w := len(t.c.owner)
	out := make([][]byte, w)
	for p := 0; p < w; p++ {
		if t.Owns(p) {
			out[p] = blobs[p]
			continue
		}
		out[p] = all[t.c.owner[p]].([][]byte)[p]
	}
	return out, nil
}

// --- pipeline bit-identity --------------------------------------------------

// wrec is the wire-codec'd element the parity pipeline moves around.
type wrec struct {
	K uint64
	V int64
}

func (wrec) SizeBytes() int { return 16 }

func (wrec) WireSize() int { return 16 }

func (wrec) WireReader() func(*wrec, []byte) ([]byte, error) { return (*wrec).decodeWire }

func (r wrec) AppendWire(dst []byte) []byte {
	dst = append(dst, byte(r.K>>56), byte(r.K>>48), byte(r.K>>40), byte(r.K>>32),
		byte(r.K>>24), byte(r.K>>16), byte(r.K>>8), byte(r.K))
	v := uint64(r.V)
	return append(dst, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func (r *wrec) decodeWire(b []byte) ([]byte, error) {
	if len(b) < 16 {
		return nil, errors.New("truncated wrec")
	}
	r.K = uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
	r.V = int64(uint64(b[8])<<56 | uint64(b[9])<<48 | uint64(b[10])<<40 | uint64(b[11])<<32 |
		uint64(b[12])<<24 | uint64(b[13])<<16 | uint64(b[14])<<8 | uint64(b[15]))
	return b[16:], nil
}

// clusterPipeline is the parity workload: it crosses every distributed seam
// — a grouping shuffle (ReduceByKey), a repartition join, a broadcast join,
// and a data-dependent bulk iteration whose convergence needs global
// agreement (GlobalIsEmpty over the all-gathered counts).
func clusterPipeline(e *Env, n int) *Dataset[wrec] {
	src := make([]wrec, n)
	for i := range src {
		src[i] = wrec{K: uint64(i % 97), V: int64(i)}
	}
	dims := make([]wrec, 13)
	for i := range dims {
		dims[i] = wrec{K: uint64(i), V: int64(100 + i)}
	}
	d := FromSlice(e, src)
	// DistinctBy shuffles by stableKey — the grouping-shuffle seam whose
	// cross-process hash stability satellite work pinned down.
	summed := DistinctBy(d, func(r wrec) uint64 { return r.K })
	dimsDS := FromSlice(e, dims)
	joined := Join(summed, dimsDS,
		func(r wrec) uint64 { return r.K % 13 }, func(r wrec) uint64 { return r.K },
		func(l, r wrec, emit func(wrec)) {
			if l.K%13 == r.K {
				emit(wrec{K: l.K, V: l.V + r.V})
			}
		}, RepartitionHash)
	bj := Join(dimsDS, joined,
		func(r wrec) uint64 { return r.K }, func(r wrec) uint64 { return r.K % 13 },
		func(l, r wrec, emit func(wrec)) {
			if l.K == r.K%13 {
				emit(wrec{K: r.K, V: r.V - l.V})
			}
		}, BroadcastLeft)
	// A shuffle and a broadcast of nothing: every bucket and blob that crosses
	// is the zero-row one.
	none := DistinctBy(Filter(d, func(wrec) bool { return false }), func(r wrec) uint64 { return r.K })
	none = Join(none, summed,
		func(r wrec) uint64 { return r.K }, func(r wrec) uint64 { return r.K },
		func(l, r wrec, emit func(wrec)) { emit(l) }, BroadcastLeft)
	rb := Union(bj, none)
	// Iteration count depends on the data (V magnitudes differ per element),
	// so processes only agree on when to stop via the global emptiness check.
	return BulkIteration(rb, nil, 64, func(it int, w *Dataset[wrec]) (*Dataset[wrec], *Dataset[wrec]) {
		done := Filter(w, func(r wrec) bool { return r.V < 1000 })
		next := Map(Filter(w, func(r wrec) bool { return r.V >= 1000 }),
			func(r wrec) wrec { return wrec{K: r.K, V: r.V / 2} })
		return next, done
	})
}

// runClusterPipeline runs the pipeline on nprocs in-memory processes with
// the given partition->process assignment and returns the concatenation of
// owned partitions in partition order, plus each process's metrics.
func runClusterPipeline(t *testing.T, workers, n int, owner []int, nprocs int) ([]wrec, []MetricsSnapshot) {
	t.Helper()
	run := runProcs(t, workers, owner, nprocs, false, false, func(e *Env) []*Dataset[wrec] {
		return []*Dataset[wrec]{clusterPipeline(e, n)}
	})
	merged := make([]wrec, 0, n)
	for _, part := range run.parts[0] {
		merged = append(merged, part...)
	}
	return merged, run.metrics
}

// TestTransportBitIdentity is the recovery guarantee's foundation: any
// ownership assignment — one process owning everything, two processes in
// any partition layout, four processes — produces the byte-identical row
// sequence, because partition contents and concatenation order are fixed by
// the program, not by who owns what. A nil-transport run is additionally
// checked as a multiset: grouping shuffles hash with the process-seeded
// maphash there, so row order (never stable across process restarts in the
// first place) may differ, but the rows themselves must not.
func TestTransportBitIdentity(t *testing.T) {
	const workers, n = 4, 2000
	// Reference: a single in-memory "process" owning every partition.
	want, _ := runClusterPipeline(t, workers, n, []int{0, 0, 0, 0}, 1)
	if len(want) == 0 {
		t.Fatal("reference pipeline produced no rows")
	}
	for _, tc := range ownerships {
		t.Run(tc.name, func(t *testing.T) {
			got, _ := runClusterPipeline(t, workers, n, tc.owner, tc.nprocs)
			if len(got) != len(want) {
				t.Fatalf("got %d rows, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("row %d: got %+v, want %+v", i, got[i], want[i])
				}
			}
		})
	}
	t.Run("vs-local-multiset", func(t *testing.T) {
		local := clusterPipeline(NewEnv(DefaultConfig(workers)), n).Collect()
		if len(local) != len(want) {
			t.Fatalf("local run has %d rows, distributed %d", len(local), len(want))
		}
		count := make(map[wrec]int, len(local))
		for _, r := range local {
			count[r]++
		}
		for _, r := range want {
			count[r]--
			if count[r] < 0 {
				t.Fatalf("distributed row %+v missing from local result", r)
			}
		}
	})
}

// TestTransportMetricParity checks the cost-model accounting contract: each
// process charges only its owned partitions, so the sum of per-process
// network model bytes equals the single-process total. This is what lets
// the coordinator's merged metrics reproduce a single-process EXPLAIN.
func TestTransportMetricParity(t *testing.T) {
	const workers, n = 4, 2000
	// The reference is a sole process owning all partitions: it runs the
	// same stable-hash partitioning the distributed runs use, so charges
	// must match to the byte.
	_, ref := runClusterPipeline(t, workers, n, []int{0, 0, 0, 0}, 1)
	want := ref[0]

	_, perProc := runClusterPipeline(t, workers, n, []int{0, 1, 0, 1}, 2)
	var gotNet, gotCPU int64
	for _, m := range perProc {
		gotNet += m.TotalNet
		gotCPU += m.TotalCPU
	}
	if gotNet != want.TotalNet {
		t.Errorf("merged network bytes %d, single-process %d", gotNet, want.TotalNet)
	}
	if gotCPU != want.TotalCPU {
		t.Errorf("merged CPU elements %d, single-process %d", gotCPU, want.TotalCPU)
	}
}

// TestTransportUnencodableType checks a remote shuffle over a type without
// wire codecs fails with a structured JobError instead of hanging or
// mis-shuffling.
func TestTransportUnencodableType(t *testing.T) {
	c := newMemCluster([]int{0, 0, 1, 1}, 2)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for proc := 0; proc < 2; proc++ {
		wg.Add(1)
		go func(proc int) {
			defer wg.Done()
			e := NewEnv(DefaultConfig(4))
			e.SetTransport(c.transport(proc))
			d := FromSlice(e, ints(100))
			Distinct(d)
			errs[proc] = e.Err()
		}(proc)
	}
	wg.Wait()
	for proc, err := range errs {
		var je *JobError
		if !errors.As(err, &je) {
			t.Fatalf("process %d: want JobError, got %v", proc, err)
		}
		if !strings.Contains(err.Error(), "not wire-encodable") {
			t.Fatalf("process %d: unexpected error %v", proc, err)
		}
	}
}

// errTransport fails every collective.
type errTransport struct{ err error }

func (t errTransport) Owns(p int) bool { return p == 0 }
func (t errTransport) Exchange(int64, [][][]byte) ([][][]byte, error) {
	return nil, t.err
}
func (t errTransport) AllGather(int64, [][]byte) ([][]byte, error) {
	return nil, t.err
}

// TestTransportErrorFailsJob checks a transport error surfaces as a
// structured JobError and terminates the pipeline (no hang, empty result).
func TestTransportErrorFailsJob(t *testing.T) {
	cause := errors.New("peer lost")
	e := NewEnv(DefaultConfig(4))
	e.SetTransport(errTransport{err: cause})
	d := FromSlice(e, []wrec{{K: 1, V: 1}, {K: 2, V: 2}, {K: 3, V: 3}})
	out := DistinctBy(d, func(r wrec) uint64 { return r.K })
	if got := out.Collect(); len(got) != 0 {
		t.Fatalf("failed job produced %d rows", len(got))
	}
	var je *JobError
	if err := e.Err(); !errors.As(err, &je) || !errors.Is(err, cause) {
		t.Fatalf("want JobError wrapping cause, got %v", err)
	}
	if e.Transport() == nil {
		t.Fatal("transport accessor lost the installed transport")
	}
}

// TestGlobalCountLocal pins the nil-transport semantics: GlobalCount and
// GlobalIsEmpty must behave exactly like Count and IsEmpty.
func TestGlobalCountLocal(t *testing.T) {
	d := FromSlice(env(4), ints(57))
	if d.GlobalCount() != d.Count() {
		t.Fatalf("GlobalCount %d != Count %d", d.GlobalCount(), d.Count())
	}
	if d.GlobalIsEmpty() {
		t.Fatal("non-empty dataset reported globally empty")
	}
	if !Empty[int](env(4)).GlobalIsEmpty() {
		t.Fatal("empty dataset not globally empty")
	}
}

// The convergence checks run once per superstep in the engine's hottest
// loops; without a transport they must stay free.
func BenchmarkTransportNilGlobalCount(b *testing.B) {
	d := FromSlice(env(4), ints(1024))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d.GlobalCount() != 1024 {
			b.Fatal("bad count")
		}
	}
}

func BenchmarkTransportNilGlobalIsEmpty(b *testing.B) {
	d := FromSlice(env(4), ints(1024))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d.GlobalIsEmpty() {
			b.Fatal("bad emptiness")
		}
	}
}
