package dataflow

import "slices"

// Sized is implemented by element types that can report their serialized
// size. The engine uses it to account network and spill bytes exactly;
// types that do not implement it are charged defaultElementSize bytes.
type Sized interface {
	SizeBytes() int
}

// defaultElementSize is the byte charge for elements that do not implement
// Sized — roughly the wire size of a small fixed-width record.
const defaultElementSize = 16

// sizing is how the elements of a Dataset[T] are accounted, resolved once
// per transformation, not once per element: converting an element to an
// interface to ask whether it is Sized allocates a copy of it, and the
// engine sizes every element it shuffles, builds a join table over or
// materializes under a governor.
type sizing[T any] struct {
	// byPointer: T has a SizeBytes method that *T has too (every Sized
	// struct type). A *T converts to an interface without allocating.
	byPointer bool
	// fixed: no element of T is Sized. Neither flag is set for pointer and
	// interface element types, whose values convert without allocating and
	// are asked one by one.
	fixed bool
}

func sizingOf[T any]() sizing[T] {
	var zero T
	if any(zero) == nil {
		return sizing[T]{} // interface type: the dynamic type decides
	}
	if _, ok := any(zero).(Sized); !ok {
		return sizing[T]{fixed: true}
	}
	_, ok := any(&zero).(Sized)
	return sizing[T]{byPointer: ok}
}

// of returns the accounted byte size of the element t points to.
func (s sizing[T]) of(t *T) int64 {
	switch {
	case s.byPointer:
		return int64(any(t).(Sized).SizeBytes())
	case s.fixed:
		return defaultElementSize
	}
	if sized, ok := any(*t).(Sized); ok {
		return int64(sized.SizeBytes())
	}
	return defaultElementSize
}

// sum returns the accounted byte size of all of part's elements.
func (s sizing[T]) sum(part []T) int64 {
	if s.fixed {
		return defaultElementSize * int64(len(part))
	}
	var n int64
	for i := range part {
		n += s.of(&part[i])
	}
	return n
}

// A Dataset is an immutable, partitioned collection of elements, the
// engine's equivalent of a Flink DataSet. Transformations derive new
// datasets; partitions are processed by independent goroutines with no
// shared state, and elements move between partitions only via shuffles.
type Dataset[T any] struct {
	env   *Env
	parts [][]T
	// partTag identifies the hash partitioning the dataset currently
	// satisfies (0 = unknown). Joins announced with the same tag skip the
	// redundant shuffle — the partition-reuse optimization Flink's
	// optimizer performs and the paper's future work calls out for further
	// runtime reduction. Tags are preserved by order-stable, row-preserving
	// transformations (Filter, Union of equally-tagged inputs) and cleared
	// by everything that rewrites rows.
	partTag uint64
}

// Env returns the execution environment the dataset belongs to.
func (d *Dataset[T]) Env() *Env { return d.env }

// Partitions returns the number of partitions (= workers).
func (d *Dataset[T]) Partitions() int { return len(d.parts) }

// Partition returns partition p's elements, without copying. Callers must
// not mutate the slice. In a distributed job, non-owned partitions are nil
// — a cluster worker ships exactly its owned partitions through this
// accessor.
func (d *Dataset[T]) Partition(p int) []T { return d.parts[p] }

// FromSlice creates a dataset by splitting data into env.Workers()
// contiguous chunks. The input slice is not copied; callers must not
// mutate it afterwards.
//
// FromSlice is the leaf of every pipeline, and it is where ownership begins:
// partitions this process does not own stay empty — every process of a job
// computes the identical chunk boundaries over the full slice and keeps only
// its share, which is what lets one deterministic program run unchanged on
// each worker.
func FromSlice[T any](env *Env, data []T) *Dataset[T] {
	w := env.Workers()
	parts := make([][]T, w)
	n := len(data)
	for p := 0; p < w; p++ {
		if !env.owns(p) {
			continue
		}
		lo, hi := p*n/w, (p+1)*n/w
		parts[p] = data[lo:hi:hi] // clipped: an append to one chunk must not write the next
	}
	return &Dataset[T]{env: env, parts: parts}
}

// FromPartitions wraps pre-partitioned data. len(parts) must equal
// env.Workers(); shorter inputs are padded with empty partitions and longer
// inputs are folded round-robin so downstream operators always see exactly
// one partition per worker.
func FromPartitions[T any](env *Env, parts [][]T) *Dataset[T] {
	w := env.Workers()
	out := make([][]T, w)
	for i, p := range parts {
		out[i%w] = append(out[i%w], p...)
	}
	for i := range out {
		out[i] = slices.Clip(out[i])
	}
	return &Dataset[T]{env: env, parts: out}
}

// Empty returns a dataset with no elements.
func Empty[T any](env *Env) *Dataset[T] {
	return &Dataset[T]{env: env, parts: make([][]T, env.Workers())}
}

// Collect gathers all elements into a single slice, partition by partition.
// The result order is deterministic for a deterministic pipeline.
func (d *Dataset[T]) Collect() []T {
	all, _, _ := Concat(d.parts, nil, nil) // copies only: nothing to decode, nothing to fail
	return all
}

// Count returns the total number of elements.
func (d *Dataset[T]) Count() int64 {
	var n int64
	for _, p := range d.parts {
		n += int64(len(p))
	}
	return n
}

// IsEmpty reports whether the dataset has no elements.
func (d *Dataset[T]) IsEmpty() bool { return d.Count() == 0 }

// Map applies f to every element, preserving partitioning. It is one to
// one, so every output partition is allocated once, at its input's length.
func Map[T, U any](d *Dataset[T], f func(T) U) *Dataset[U] {
	return FlatMapWith(d, func(*Lane) func(T, func(U)) {
		return func(t T, emit func(U)) { emit(f(t)) }
	}, 1)
}

// Filter keeps the elements for which pred returns true, preserving
// partitioning (including any partition tag — rows do not move or change).
func Filter[T any](d *Dataset[T], pred func(T) bool) *Dataset[T] {
	out := FlatMap(d, func(t T, emit func(T)) {
		if pred(t) {
			emit(t)
		}
	})
	out.partTag = d.partTag
	return out
}

// FlatMap applies f to every element; f may emit zero or more outputs. This
// is the transformation the paper's FilterAndProject operators fuse their
// Select→Project→Transform steps into (§3.1).
func FlatMap[T, U any](d *Dataset[T], f func(T, func(U))) *Dataset[U] {
	return FlatMapWith(d, func(*Lane) func(T, func(U)) { return f }, 0)
}

// FlatMapWith is FlatMap for a row function that keeps state: newF is called
// once per partition attempt, with the partition's lane, and the function it
// returns is called by that attempt's goroutine only. What newF declares is
// the attempt's own and a retried attempt gets a fresh one; what it keeps in
// the lane - a slab its output rows are carved from, scratch slices - lasts
// the job and is the partition's own (Lane). Neither needs a lock. JoinWith,
// Probe, OuterJoinWith and SemiJoinWith follow the same contract.
//
// perInput is what the caller knows of the function's fan-out: an output
// partition is allocated once, with room for perInput outputs per input
// element, before the first row is written. It is a size, not a contract - a
// function that emits more grows the partition, one that emits less than half
// has it copied to its length (see publish) - and 0 says nothing is known:
// the partition grows as rows are emitted, which is right for a selective
// function.
func FlatMapWith[T, U any](d *Dataset[T], newF func(*Lane) func(T, func(U)), perInput int) *Dataset[U] {
	return flatMapWith(d, newF, perInput, nil, nil)
}

// FlatMapCounted is FlatMapWith for a function that writes at most one output
// for an element count passes and none for any other: every partition attempt
// counts what count passes first, then allocates its output once at that
// count and writes, as a join's probe counts its pairs before it writes them
// (probePartition). Sized at the input length instead, the output of a
// function that keeps few would be copied down to its length; grown as
// emitted, it would be copied up to it. count is a size, not a filter - the
// function still decides what it writes - and it may be called from several
// attempts at once. A nil count passes every element: the output is allocated
// at the input length without a counting pass, as FlatMapWith's with one
// output per element.
func FlatMapCounted[T, U any](d *Dataset[T], count func(T) bool, newF func(*Lane) func(T, func(U))) *Dataset[U] {
	if count == nil {
		return flatMapWith(d, newF, 1, nil, nil)
	}
	return flatMapWith(d, newF, 0, count, nil)
}

// FlatMapSized is FlatMapWith for a function whose outputs for an element are
// at most size of it, a bound read off the element before the function runs:
// every partition attempt sums size over its elements first, then allocates
// its output once at that sum, but no more than presizeCeiling rows, and
// writes - as a join's probe counts its pairs (probePartition). A function
// that writes fewer than half has its output copied to its length (publish).
// size may be called from several attempts at once.
func FlatMapSized[T, U any](d *Dataset[T], size func(T) int, newF func(*Lane) func(T, func(U))) *Dataset[U] {
	return flatMapWith(d, newF, 0, nil, size)
}

func flatMapWith[T, U any](d *Dataset[T], newF func(*Lane) func(T, func(U)), perInput int, count func(T) bool, size func(T) int) *Dataset[U] {
	env := d.env
	if env.Failed() {
		return Empty[U](env)
	}
	env.beginStage(kindFlatMap)
	out := runStage(env, len(d.parts), func(a *attempt) ([]U, work) {
		part := d.parts[a.p]
		f := newF(a.lane)
		n := perInput * len(part)
		if count != nil || size != nil {
			for i, t := range part {
				if !a.tick(i) {
					return nil, work{}
				}
				switch {
				case count == nil:
					n += size(t)
				case count(t):
					n++
				}
			}
			if size != nil {
				n = min(n, presizeCeiling)
			}
		}
		var res []U
		if n > 0 {
			res = make([]U, 0, n)
		}
		emit := emitter(a, &res)
		for i, t := range part {
			if !a.tick(i) {
				return nil, work{}
			}
			f(t, emit)
		}
		in := int64(len(part))
		return publish(res), work{cpu: in, rowsIn: in, rowsOut: int64(len(res))}
	})
	return &Dataset[U]{env: env, parts: out}
}

// FlatMapPolled is FlatMapWith for a function whose work on one element has
// no bound: a walk that may visit millions of edges, and write a row for
// each, from one input row. Besides the element and emit, the function is
// handed poll, which it calls once per unit of that work - an edge visited -
// and which, like the poll between elements, checks for cancellation and
// flushes the bytes the attempt holds to the governor every cancelCheckMask+1
// calls, so a runaway element is stopped in the middle. Once poll reports
// false the attempt is dead: the function returns at once and the stage drops
// what it wrote. Nothing is known of the fan-out - the output grows as rows
// are emitted - and the simulated CPU charge is one per element and one per
// poll.
func FlatMapPolled[T, U any](d *Dataset[T], newF func(*Lane) func(t T, emit func(U), poll func() bool)) *Dataset[U] {
	env := d.env
	if env.Failed() {
		return Empty[U](env)
	}
	env.beginStage(kindFlatMap)
	out := runStage(env, len(d.parts), func(a *attempt) ([]U, work) {
		part := d.parts[a.p]
		f := newF(a.lane)
		var res []U
		emit := emitter(a, &res)
		polls := 0
		poll := func() bool {
			polls++
			return a.tick(polls)
		}
		for _, t := range part {
			if !poll() {
				return nil, work{}
			}
			if f(t, emit, poll); a.dead {
				return nil, work{}
			}
		}
		return publish(res), work{cpu: int64(polls), rowsIn: int64(len(part)), rowsOut: int64(len(res))}
	})
	return &Dataset[U]{env: env, parts: out}
}

// presizeCeiling is the most rows an output partition is allocated at on the
// strength of a count (probePartition): 2^18 rows, 2 MiB of the one-word
// headers of embedding rows. It is a constant - nothing sets it but TestPresizeIsInvisible,
// which is why it is a variable.
var presizeCeiling = 1 << 18

// publish is the last thing a stage body does to the partition it returns:
// the partition leaves without spare capacity, so an append to a published
// partition copies it and can reach neither a neighbour nor rows written
// later. A partition sized by an upper bound of which fewer than half the
// rows survived (a joiner that rejects most candidates, a leaf whose input
// was not restricted to its label) is copied to its length and gives the
// rest back; otherwise it is clipped where it stands.
func publish[U any](res []U) []U {
	n := len(res)
	switch {
	case n == 0:
		return nil
	case cap(res) > 2*n:
		return append(make([]U, 0, n), res...) // exactly n: slices.Clone may round up
	}
	return slices.Clip(res)
}

// emitter returns the emit callback of an attempt that produces rows: it
// appends to *res and, under a governor, holds every row's accounted bytes.
func emitter[U any](a *attempt, res *[]U) func(U) {
	if a.env.governor == nil {
		return func(u U) { *res = append(*res, u) }
	}
	sz := sizingOf[U]()
	return func(u U) {
		*res = append(*res, u)
		a.hold(sz.of(&(*res)[len(*res)-1]))
	}
}

// MapPartition applies f once per partition, giving it the whole partition
// and an emit callback.
func MapPartition[T, U any](d *Dataset[T], f func(part []T, emit func(U))) *Dataset[U] {
	env := d.env
	if env.Failed() {
		return Empty[U](env)
	}
	env.beginStage(kindMapPartition)
	out := runStage(env, len(d.parts), func(a *attempt) ([]U, work) {
		part := d.parts[a.p]
		var res []U
		emit := emitter(a, &res)
		if env.governor != nil {
			// The driver has no per-element loop here — f consumes the whole
			// partition — so the poll rides on emit: tick every mask+1 outputs
			// and, once dead, drop the buffer and swallow further emits so a
			// runaway f cannot keep growing it.
			appendRow := emit
			emit = func(u U) {
				if a.dead {
					return
				}
				appendRow(u)
				if !a.tick(len(res) - 1) {
					res = nil
				}
			}
		}
		f(part, emit)
		n := int64(len(part))
		return publish(res), work{cpu: n, rowsIn: n, rowsOut: int64(len(res))}
	})
	return &Dataset[U]{env: env, parts: out}
}

// Union concatenates two datasets partition-wise. Like Flink's union it
// moves no data; a shared partition tag survives.
func Union[T any](a, b *Dataset[T]) *Dataset[T] { return UnionAll(a, b) }

// UnionAll concatenates one or more datasets partition-wise, operands in
// argument order, in one stage: an output partition is allocated once, at
// the summed length, whatever the number of operands - which is what lets an
// iteration keep its per-superstep results as a list and copy each row once.
func UnionAll[T any](ds ...*Dataset[T]) *Dataset[T] {
	env := ds[0].env
	for _, d := range ds[1:] {
		if mismatch(env, d.env, "Union") {
			return Empty[T](env)
		}
	}
	if env.Failed() {
		return Empty[T](env)
	}
	env.beginStage(kindUnion)
	out := make([][]T, len(ds[0].parts))
	for p := range out {
		total, nonEmpty := 0, 0
		for _, d := range ds {
			if n := len(d.parts[p]); n > 0 {
				total += n
				nonEmpty++
				// Datasets are immutable, so a lone non-empty operand's
				// partition is aliased, not copied; per-label unions over a
				// session's pinned slices stay zero-copy this way. Like every
				// partition it has no spare capacity, so an append through
				// either name copies.
				out[p] = d.parts[p]
			}
		}
		if nonEmpty < 2 {
			continue
		}
		merged := make([]T, 0, total)
		for _, d := range ds {
			merged = append(merged, d.parts[p]...)
		}
		if env.governor != nil {
			// Only the copying path materializes new memory; the aliasing
			// path above reuses an input partition byte for byte.
			if !env.chargeMem(p, sizingOf[T]().sum(merged)) {
				return Empty[T](env)
			}
		}
		out[p] = merged
	}
	for p := range out {
		n := int64(len(out[p]))
		env.charge(p, work{rowsIn: n, rowsOut: n})
	}
	return &Dataset[T]{env: env, parts: out, partTag: unionTag(ds)}
}

// unionTag is the partition tag a union's result carries: the one its
// operands share, or none. An operand that is empty is left out: it cannot
// perturb the others' partitioning, so the tag the non-empty ones share
// survives. Not so when other processes own partitions, where emptiness is
// local - a partition empty on this worker may be populated on another - and
// data-dependent tags must not diverge across processes (the cost is a
// redundant, content-preserving shuffle).
func unionTag[T any](ds []*Dataset[T]) uint64 {
	alone := ds[0].env.ownsAll()
	tag, found := ds[0].partTag, false
	for _, d := range ds {
		switch {
		case alone && d.IsEmpty():
		case !found:
			tag, found = d.partTag, true
		case d.partTag != tag:
			return 0
		}
	}
	return tag
}
