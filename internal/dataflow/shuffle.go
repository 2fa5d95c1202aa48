package dataflow

import (
	"fmt"
	"sync"
)

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
	env.beginStage(kindShuffle)
	w := len(d.parts)
	if w == 1 {
		// Single worker: nothing moves, but the pass over the data is real.
		n := int64(len(d.parts[0]))
		env.charge(0, work{cpu: n, rowsIn: n, rowsOut: n})
		if tag != 0 {
			tagged := *d
			tagged.partTag = tag
			return &tagged
		}
		return d
	}
	out, ok := exchange(d, key)
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

// newRoute returns the empty route of a source partition of n elements over w
// destinations, laid over the lane's arrays: a route is read until its
// exchange has placed and charged every element and never after, and the
// partition's next exchange - or this one's retried attempt - rewrites it from
// empty. dest holds the last route's destinations until the routing loop has
// written every one of them.
func newRoute(lane *Lane, n, w int) route {
	lane.dest, lane.to = grown(lane.dest, n), grown(lane.to, w)
	clear(lane.to)
	return route{dest: lane.dest, to: lane.to}
}

// exchange moves every element of d to partition mix64(key) % P, in one
// sequence whoever owns the partitions - a job in one process is a cluster of
// one. First a stage of partition attempts like any other routes: it records
// every element's destination and counts and sizes what goes where. What an
// owned source owes a partition of another process is then sized from its
// route and swapped for what the other processes owe this one
// (Transport.Exchange, the only statement that knows there are other
// processes, which writes each bucket from the rows and the route before it
// returns). Now every owned destination's size is known - an owned source's
// count is in its route, a foreign one's in its encoded bucket's header - so
// the partition is allocated once, at its exact size, and cut into one window
// per source, in source order. Every window is written once: placeAll copies
// the owned sources' elements, a foreign source's bucket is decoded into its
// window, and in the same loop the received network bytes are charged - an
// owned source's from its route, a foreign one's sized as decoded. The
// concatenation - source partitions in order, elements in source order - is
// the same under every ownership assignment, which is what makes a
// distributed result bit-identical. Only owned partitions are charged and
// traced, so the metrics of a job's processes add up to those of the job run
// in one. exchange reports failure (an aborted attempt leaves its route
// empty, a transport or a bucket may be bad) instead of handing on a partition
// half written.
func exchange[T any](d *Dataset[T], key func(T) uint64) ([][]T, bool) {
	env := d.env
	w := len(d.parts)
	sz := sizingOf[T]()
	routes := runStage(env, w, func(a *attempt) (route, work) {
		p, part := a.p, d.parts[a.p]
		r := newRoute(a.lane, len(part), w)
		for i := range part {
			if a.in = int64(i); !a.tick(i) {
				return route{}, work{}
			}
			q := int(mix64(key(part[i])) % uint64(w))
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
	stage := env.metrics.stageCount()
	var incoming [][][]byte // [q][p]: foreign source p's bucket for owned destination q
	if env.transport != nil {
		outgoing, p, err := foreignBuckets(env, d.parts, routes)
		if err != nil {
			env.fail(&JobError{Stage: stage, Partition: p, Cause: err})
			return nil, false
		}
		if incoming, err = env.transport.Exchange(stage, outgoing); err != nil {
			env.fail(&JobError{Stage: stage, Cause: err})
			return nil, false
		}
	}
	corrupt := func(q, p int, err error) ([][]T, bool) {
		env.fail(&JobError{Stage: stage, Partition: q, Cause: fmt.Errorf("from partition %d: %w", p, err)})
		return nil, false
	}
	count := func(p, q int) (int, error) {
		if env.owns(p) {
			return routes[p].to[q].count, nil
		}
		return BucketCount(incoming[q][p])
	}

	// buckets[p*w+q], where source p's elements for destination q go, is a
	// window of destination q's partition: the windows of one destination
	// follow each other in source order.
	out := make([][]T, w)
	buckets := make([][]T, w*w)
	for q := range out {
		if !env.owns(q) {
			continue
		}
		total := 0
		for p := range routes {
			n, err := count(p, q)
			if err != nil {
				return corrupt(q, p, err)
			}
			total += n
		}
		rest := make([]T, total)
		out[q] = rest
		for p := range routes {
			n, _ := count(p, q)
			buckets[p*w+q], rest = rest[:n:n], rest[n:]
		}
	}
	placeAll(d.parts, routes, buckets)
	for q := range out {
		if !env.owns(q) {
			continue
		}
		var net, mem int64
		for p := range routes {
			bytes := routes[p].to[q].bytes
			if !env.owns(p) {
				window := buckets[p*w+q]
				if err := DecodeBucket(window, incoming[q][p]); err != nil {
					return corrupt(q, p, err)
				}
				bytes = sz.sum(window)
			}
			mem += bytes
			if p != q {
				net += bytes
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
		env.charge(q, work{net: net, rowsOut: int64(len(out[q]))})
	}
	return out, true
}

// placeStack is the number of partitions up to which placeAll's fill
// counters cost no allocation.
const placeStack = 16

// placeAll copies every element into its bucket - source p's are
// buckets[p*w:(p+1)*w] - one goroutine per source partition. A bucket that is
// nil belongs to a destination of another process, which got the element
// encoded. The windows are disjoint and only read here, so the writers share
// nothing: a goroutine counts how far it has filled each of its windows in
// next, which lives on its stack up to placeStack partitions. (Advancing the
// windows in place instead, bucket[q] = bucket[q][1:], stores a slice header
// for every element into an array all sources share, and measured slower:
// DESIGN decision 29.) The loop is a copy that calls no user code and cannot
// fail, which is why it runs outside runStage (it is not a stage, and a fault
// plan must not see it as a second attempt of one).
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
				if bucket[q] == nil {
					continue
				}
				bucket[q][next[q]] = part[i]
				next[q]++
			}
		}(parts[p], routes[p].dest, buckets[p*w:(p+1)*w])
	}
	wg.Wait()
}

// PartitionByKey exposes the hash shuffle for callers that want explicit
// co-partitioning before repeated joins on the same key.
func PartitionByKey[T any](d *Dataset[T], key func(T) uint64) *Dataset[T] {
	return shuffle(d, key)
}

// broadcast replicates all of d's elements to every partition, charging
// network cost of size × (P-1). It returns the replicated slice: every
// partition of every process, in partition order.
func broadcast[T any](d *Dataset[T]) []T {
	env := d.env
	if env.Failed() {
		return nil
	}
	env.beginStage(kindBroadcast)
	all, ok := gather(d)
	if !ok {
		return nil
	}
	bytes := sizingOf[T]().sum(all)
	// One replica is what this process actually materializes (the slice is
	// shared by every partition goroutine), so one replica is what the
	// governor charges — the per-worker fan-out below is network cost only.
	// Each process charges only its owned partitions, so the metrics of a
	// job's processes add up to those of the job run in one.
	if env.owns(0) && !env.chargeMem(0, bytes) {
		return nil
	}
	for q := range d.parts {
		if !env.owns(q) {
			continue
		}
		// Every worker receives the full copy except the share it already had;
		// approximating as full size keeps the model simple and pessimistic.
		env.charge(q, work{net: bytes, rowsOut: int64(len(all))})
	}
	return all
}
