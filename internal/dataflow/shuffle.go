package dataflow

import "sync"

// mix64 is the splitmix64 finalizer, used to spread keys over partitions.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// HashString hashes a string key to a uint64 (FNV-1a, then mixed).
func HashString(s string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return mix64(h)
}

// shuffle redistributes d's elements so that every element lands on
// partition mix64(key(t)) % P. It accounts network bytes for every element
// that changes partitions and is deterministic: destination partitions
// concatenate the buckets of source partitions in source order.
func shuffle[T any](d *Dataset[T], key func(T) uint64) *Dataset[T] {
	return shuffleTagged(d, key, 0)
}

// shuffleTagged is shuffle with partition-reuse awareness: when tag is
// non-zero and the dataset is already partitioned under that tag, the
// exchange is skipped entirely (Flink's partition reuse). Otherwise the
// result carries the tag.
func shuffleTagged[T any](d *Dataset[T], key func(T) uint64, tag uint64) *Dataset[T] {
	env := d.env
	if env.Failed() {
		return Empty[T](env)
	}
	if tag != 0 && d.partTag == tag {
		return d
	}
	env.beginStage("Shuffle", true)
	w := len(d.parts)
	if w == 1 {
		// Single worker: nothing moves, but the pass over the data is real.
		env.chargeCPU(0, int64(len(d.parts[0])))
		env.traceRowsIn(0, int64(len(d.parts[0])))
		env.traceRowsOut(0, int64(len(d.parts[0])))
		if tag != 0 {
			tagged := *d
			tagged.partTag = tag
			return &tagged
		}
		return d
	}
	out, ok := exchange(d, func(_, _ int, t T) int { return int(mix64(key(t)) % uint64(w)) })
	if !ok {
		return Empty[T](env)
	}
	return &Dataset[T]{env: env, parts: out, partTag: tag}
}

// route is what the first pass of an exchange records about one source
// partition: where each element goes, and per destination how many elements
// and how many accounted bytes. The sender's own destination is sized only
// under a governor, which charges the whole output; the network model bills
// what crosses partitions.
type route struct {
	dest []uint32
	to   []routeTotal // per destination
}

type routeTotal struct {
	count int
	bytes int64
}

// exchange moves every element of d to the partition dest names for it
// (given the element's partition and index there), in two passes. The first,
// one stage of partition attempts like any other, routes: it records every
// element's destination and counts and sizes what goes where. With every
// destination's size known, the second places each element straight into
// its final position - source partitions in order, elements in source
// order, the deterministic concatenation every exchange has always
// produced - so a destination partition is allocated once, at its exact
// size, and written once; then the received network bytes are charged.
// exchange reports failure (an aborted attempt leaves its route empty)
// instead of indexing into it. With a transport installed the exchange spans
// processes and the second pass is remoteExchange's: it encodes, places and
// decodes by the same routes, and keeps the same source-order concatenation,
// so the distributed result is bit-identical.
func exchange[T any](d *Dataset[T], dest func(p, i int, t T) int) ([][]T, bool) {
	env := d.env
	w := len(d.parts)
	sz := sizingOf[T]()
	routes := runStage(env, w, func(a *attempt) (route, work) {
		p, part := a.p, d.parts[a.p]
		r := route{dest: make([]uint32, len(part)), to: make([]routeTotal, w)}
		for i := range part {
			if !a.tick(i) {
				return route{}, work{}
			}
			q := dest(p, i, part[i])
			r.dest[i] = uint32(q)
			r.to[q].count++
			if q != p || env.governor != nil {
				r.to[q].bytes += sz.of(&part[i])
			}
		}
		n := int64(len(part))
		return r, work{cpu: n, rowsIn: n}
	})
	if env.Failed() {
		return nil, false
	}
	if env.transport != nil {
		return remoteExchange(d, routes)
	}

	// buckets[p*w+q], where source p's elements for destination q go, is a
	// window of destination q's partition: the windows of one destination
	// follow each other in source order.
	out := make([][]T, w)
	buckets := make([][]T, w*w)
	for q := range out {
		n := 0
		for p := range routes {
			n += routes[p].to[q].count
		}
		rest := make([]T, n)
		out[q] = rest
		for p := range routes {
			n := routes[p].to[q].count
			buckets[p*w+q], rest = rest[:n:n], rest[n:]
		}
	}
	placeAll(d.parts, routes, buckets)
	for q := range out {
		var net, mem int64
		for p := range routes {
			mem += routes[p].to[q].bytes
			if p != q {
				net += routes[p].to[q].bytes
			}
		}
		// The destination partition is a fresh materialization of the whole
		// exchange output, so it is charged in full - not just the
		// cross-partition share the network model bills. Partition
		// granularity is enough here: a shuffle's output can never exceed its
		// input.
		if !env.chargeMem(q, mem) {
			return nil, false
		}
		env.chargeNet(q, net)
		env.traceRowsOut(q, int64(len(out[q])))
	}
	return out, true
}

// placeStack is the number of partitions up to which placeAll's fill
// counters cost no allocation.
const placeStack = 16

// placeAll copies every element into its bucket - source p's are
// buckets[p*w:(p+1)*w] - one goroutine per source partition. The windows are
// disjoint and only read here, so the writers share nothing: a goroutine
// counts how far it has filled each of its windows in next, which lives on
// its stack up to placeStack partitions. (Advancing the windows in place
// instead, bucket[q] = bucket[q][1:], stores a slice header for every element
// into an array all sources share, and measured slower: DESIGN decision 29.)
// The loop is a copy that calls no user code and cannot fail, which is why it
// runs outside runStage (it is not a stage, and a fault plan must not see it
// as a second attempt of one).
func placeAll[T any](parts [][]T, routes []route, buckets [][]T) {
	w := len(parts)
	var wg sync.WaitGroup
	for p := range parts {
		if len(parts[p]) == 0 {
			continue
		}
		wg.Add(1)
		go func(part []T, dest []uint32, bucket [][]T) {
			defer wg.Done()
			var stack [placeStack]int
			next := stack[:]
			if len(bucket) > placeStack {
				next = make([]int, len(bucket))
			}
			for i := range part {
				q := dest[i]
				bucket[q][next[q]] = part[i]
				next[q]++
			}
		}(parts[p], routes[p].dest, buckets[p*w:(p+1)*w])
	}
	wg.Wait()
}

// Rebalance redistributes elements round-robin so all partitions have equal
// sizes, charging network cost for moved elements. It models Flink's
// rebalance() and is used to break skew after expensive filters. An
// element's destination is its global index modulo the worker count, which
// is deterministic and needs no state shared between partition goroutines.
func Rebalance[T any](d *Dataset[T]) *Dataset[T] {
	env := d.env
	if env.Failed() {
		return Empty[T](env)
	}
	env.beginStage("Rebalance", true)
	w := len(d.parts)
	if w == 1 {
		env.chargeCPU(0, int64(len(d.parts[0])))
		env.traceRowsIn(0, int64(len(d.parts[0])))
		env.traceRowsOut(0, int64(len(d.parts[0])))
		return d
	}
	// The offset table must reflect every process's partition sizes, not
	// just the locally owned ones, or destinations diverge across workers.
	counts, ok := globalPartCounts(d)
	if !ok {
		return Empty[T](env)
	}
	offs := make([]int, w) // global index of each partition's first element
	total := 0
	for p := 0; p < w; p++ {
		offs[p] = total
		total += int(counts[p])
	}
	out, ok := exchange(d, func(p, i int, _ T) int { return (offs[p] + i) % w })
	if !ok {
		return Empty[T](env)
	}
	return &Dataset[T]{env: env, parts: out}
}

// PartitionByKey exposes the hash shuffle for callers that want explicit
// co-partitioning before repeated joins on the same key.
func PartitionByKey[T any](d *Dataset[T], key func(T) uint64) *Dataset[T] {
	return shuffle(d, key)
}

// broadcast replicates all of d's elements to every partition, charging
// network cost of size × (P-1). It returns the replicated slice.
func broadcast[T any](d *Dataset[T]) []T {
	env := d.env
	if env.Failed() {
		return nil
	}
	env.beginStage("Broadcast", true)
	var all []T
	if env.transport != nil {
		// Distributed: every process contributes its owned partitions and
		// receives the rest, assembled in partition order — the same slice a
		// single process would Collect.
		var ok bool
		if all, ok = allGatherParts(env, d); !ok {
			return nil
		}
	} else {
		all = d.Collect()
	}
	bytes := sizingOf[T]().sum(all)
	// One replica is what this process actually materializes (the slice is
	// shared by every partition goroutine), so one replica is what the
	// governor charges — the per-worker fan-out below is network cost only.
	// In a distributed job each process charges only its owned partitions,
	// so the merged metrics match the single-process totals.
	if env.transport == nil || env.transport.Owns(0) {
		if !env.chargeMem(0, bytes) {
			return nil
		}
	}
	w := len(d.parts)
	for q := 0; q < w; q++ {
		if env.transport != nil && !env.transport.Owns(q) {
			continue
		}
		// Every worker receives the full copy except the share it already had;
		// approximating as full size keeps the model simple and pessimistic.
		env.chargeNet(q, bytes)
		env.traceRowsOut(q, int64(len(all)))
	}
	return all
}
