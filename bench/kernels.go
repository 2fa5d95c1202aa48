package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"gradoop/internal/dataflow"
	"gradoop/internal/embedding"
	"gradoop/internal/epgm"
	"gradoop/internal/wire"
)

// The kernels time single functions of the lowest layers on 100 k seeded
// elements. They are where a row-layout or shuffle change shows first, long
// before it reaches an end-to-end metric.
const (
	kernelElems = 100_000
	kernelReps  = 5
)

// timeKernel runs f reps times and returns the median nanoseconds and the
// median allocations of one run.
func timeKernel(reps int, f func()) (ns, allocs float64) {
	var nss, allocss []float64
	var m0, m1 runtime.MemStats
	for i := 0; i < reps; i++ {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		f()
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		nss = append(nss, float64(d.Nanoseconds()))
		allocss = append(allocss, float64(m1.Mallocs-m0.Mallocs))
	}
	return median(nss), median(allocss)
}

// kernelEmbedding is a row of the shape Q1-Q3 carry: two ids, a path and
// three properties.
func kernelEmbedding(rng *rand.Rand) embedding.Embedding {
	var e embedding.Embedding
	e = e.AppendID(epgm.ID(rng.Int63())).
		AppendPath([]epgm.ID{epgm.ID(rng.Int63()), epgm.ID(rng.Int63()), epgm.ID(rng.Int63())}).
		AppendID(epgm.ID(rng.Int63()))
	return e.AppendProps(epgm.PVString("Alice"), epgm.PVInt(rng.Int63n(1<<40)), epgm.PVString("Leipzig"))
}

// runKernels fills in the dataflow, embedding and wire kernel metrics.
func runKernels(seed int64, m metricSet) error {
	rng := rand.New(rand.NewSource(seed))
	ints := make([]int, kernelElems)
	for i := range ints {
		ints[i] = rng.Intn(kernelElems)
	}
	key := func(x int) uint64 { return uint64(x) }

	env := dataflow.NewEnv(dataflow.DefaultConfig(partitions))
	d := dataflow.FromSlice(env, ints)
	ns, allocs := timeKernel(kernelReps, func() { dataflow.PartitionByKey(d, key) })
	m.set("dataflow.shuffle_ns_per_elem", ns/kernelElems, kernelReps)
	m.set("dataflow.shuffle_allocs_per_elem", allocs/kernelElems, kernelReps)

	l := dataflow.FromSlice(env, ints[:kernelElems/2])
	r := dataflow.FromSlice(env, ints[kernelElems/2:])
	ns, allocs = timeKernel(kernelReps, func() {
		dataflow.Join(l, r, key, key, func(a, b int, emit func(int)) { emit(a) }, dataflow.RepartitionHash)
	})
	m.set("dataflow.join_ns_per_row", ns/kernelElems, kernelReps)
	m.set("dataflow.join_allocs_per_row", allocs/kernelElems, kernelReps)
	if err := env.Err(); err != nil {
		return fmt.Errorf("dataflow kernels: %w", err)
	}

	rows := make([]embedding.Embedding, kernelElems)
	for i := range rows {
		rows[i] = kernelEmbedding(rng)
	}
	drop := []int{0}
	sink := 0
	ns, allocs = timeKernel(kernelReps, func() {
		for i := 1; i < len(rows); i++ {
			sink += rows[i-1].Merge(rows[i], drop).Columns()
		}
	})
	m.set("embedding.merge_ns", ns/(kernelElems-1), kernelReps)
	m.set("embedding.merge_allocs", allocs/(kernelElems-1), kernelReps)

	ns, _ = timeKernel(kernelReps, func() {
		for i := range rows {
			sink += int(rows[i].Prop(2).Type())
		}
	})
	m.set("embedding.prop_ns", ns/kernelElems, kernelReps)

	var frame []byte
	ns, _ = timeKernel(kernelReps, func() {
		frame = frame[:0]
		for i := range rows {
			frame = rows[i].AppendWire(frame)
		}
	})
	m.set("embedding.encode_ns_per_row", ns/kernelElems, kernelReps)

	var decodeErr error
	ns, _ = timeKernel(kernelReps, func() {
		rest := frame
		var e embedding.Embedding
		for len(rest) > 0 && decodeErr == nil {
			rest, decodeErr = e.DecodeWireInto(rest)
			sink += e.Columns()
		}
	})
	if decodeErr != nil {
		return fmt.Errorf("embedding decode kernel: %w", decodeErr)
	}
	m.set("embedding.decode_ns_per_row", ns/kernelElems, kernelReps)

	params := map[string]epgm.PropertyValue{"firstName": epgm.PVString("Xavier"), "limit": epgm.PVInt(10)}
	var buf []byte
	var paramsErr error
	ns, _ = timeKernel(kernelReps, func() {
		for i := 0; i < kernelElems; i++ {
			buf = wire.AppendParams(buf[:0], params)
			if _, err := wire.ReadParams(buf); err != nil {
				paramsErr = err
			}
		}
	})
	if paramsErr != nil {
		return fmt.Errorf("params round trip kernel: %w", paramsErr)
	}
	m.set("wire.params_roundtrip_ns", ns/kernelElems, kernelReps)
	if sink < 0 {
		return fmt.Errorf("kernel sink went negative") // keeps the loops from being removed
	}
	return nil
}
