package dataflow

import (
	"math"
	"math/bits"
)

// JoinHint selects the physical join strategy, mirroring the choice Flink's
// optimizer makes between repartitioning both inputs and broadcasting the
// smaller one.
type JoinHint int

const (
	// RepartitionHash shuffles both inputs by key hash and runs a
	// per-partition hash join (build = left, probe = right).
	RepartitionHash JoinHint = iota
	// BroadcastLeft replicates the left input to every worker and probes it
	// with the unmoved right input.
	BroadcastLeft
)

// Join performs an equi-join of l and r on uint64 keys. The joiner is a
// FlatJoin: it may emit zero or more outputs per matching pair, which is how
// JoinEmbeddings discards pairs that violate isomorphism semantics without a
// separate filter stage (§3.1).
func Join[L, R, U any](l *Dataset[L], r *Dataset[R], lkey func(L) uint64, rkey func(R) uint64,
	joiner func(L, R, func(U)), hint JoinHint) *Dataset[U] {
	return JoinWith(l, r, lkey, rkey, func(*Lane) func(L, R, func(U)) { return joiner }, hint, 0)
}

// JoinWith is Join for a joiner that keeps state, with partition reuse:
// newJoiner is called once per partition attempt, with the partition's lane
// (see FlatMapWith), and the key functions stay shared and must stay pure.
// tag identifies the logical join key (0: none). Inputs already partitioned
// under tag skip their shuffle, and the result is marked as partitioned under
// tag (a repartition hash join leaves output rows on the partition their key
// hashes to).
func JoinWith[L, R, U any](l *Dataset[L], r *Dataset[R], lkey func(L) uint64, rkey func(R) uint64,
	newJoiner func(*Lane) func(L, R, func(U)), hint JoinHint, tag uint64) *Dataset[U] {
	if mismatch(l.env, r.env, "Join") || l.env.Failed() {
		return Empty[U](l.env)
	}
	switch hint {
	case BroadcastLeft:
		return broadcastJoin(l, r, lkey, rkey, newJoiner)
	default:
		return repartitionJoin(l, r, lkey, rkey, newJoiner, tag)
	}
}

// OuterJoinWith is the repartition hash join for a joiner that also acts once
// per probe row - the form an outer join takes. r is the preserved side and
// probes; l builds. newJoiner is called once per partition attempt and returns
// two functions over that attempt's state: pair, called on every key match
// like JoinWith's joiner, and after, called once for every probe row when its
// matches have been walked. An outer join's pair emits the merged row and
// notes that the probe row found a partner, its after emits the padded probe
// row if none did. Rows come out in the probe side's partition order.
func OuterJoinWith[L, R, U any](l *Dataset[L], r *Dataset[R], lkey func(L) uint64, rkey func(R) uint64,
	newJoiner func(*Lane) (pair func(L, R, func(U)), after func(R, func(U)))) *Dataset[U] {
	return perRowJoin(l, r, lkey, rkey, "OuterJoin", func(lane *Lane) (func(L, R, func(U)), *perRow[L, R, U]) {
		pair, after := newJoiner(lane)
		return pair, &perRow[L, R, U]{after: after}
	})
}

// SemiJoinWith is OuterJoinWith for a join that tests pairs and merges none -
// a semi or an anti join. match is a predicate, not a producer: it is called
// on a probe row's key matches until it first returns true, which decides the
// row, and the rest of the key's chain is not walked; after then emits the
// probe row or nothing. The output is sized by the probe rows alone.
func SemiJoinWith[L, R, U any](l *Dataset[L], r *Dataset[R], lkey func(L) uint64, rkey func(R) uint64,
	newJoiner func(*Lane) (match func(L, R) bool, after func(R, func(U)))) *Dataset[U] {
	return perRowJoin(l, r, lkey, rkey, "SemiJoin", func(lane *Lane) (func(L, R, func(U)), *perRow[L, R, U]) {
		match, after := newJoiner(lane)
		return nil, &perRow[L, R, U]{after: after, match: match}
	})
}

// perRowJoin is the stage pair behind OuterJoinWith and SemiJoinWith: two
// shuffles and one Join stage, like an untagged repartitionJoin.
func perRowJoin[L, R, U any](l *Dataset[L], r *Dataset[R], lkey func(L) uint64, rkey func(R) uint64, name string,
	newJoiner func(*Lane) (func(L, R, func(U)), *perRow[L, R, U])) *Dataset[U] {
	env := l.env
	if mismatch(env, r.env, name) || env.Failed() {
		return Empty[U](env)
	}
	ls := shuffle(l, lkey)
	rs := shuffle(r, rkey)
	env.beginStage(kindJoin)
	out := runStage(env, len(ls.parts), func(a *attempt) ([]U, work) {
		joiner, row := newJoiner(a.lane)
		return hashJoinPartition(a, ls.parts[a.p], rs.parts[a.p], lkey, rkey, joiner, row)
	})
	return &Dataset[U]{env: env, parts: out}
}

func repartitionJoin[L, R, U any](l *Dataset[L], r *Dataset[R], lkey func(L) uint64, rkey func(R) uint64,
	newJoiner func(*Lane) func(L, R, func(U)), tag uint64) *Dataset[U] {
	env := l.env
	ls := shuffleTagged(l, lkey, tag)
	rs := shuffleTagged(r, rkey, tag)
	env.beginStage(kindJoin)
	out := runStage(env, len(ls.parts), func(a *attempt) ([]U, work) {
		return hashJoinPartition(a, ls.parts[a.p], rs.parts[a.p], lkey, rkey, newJoiner(a.lane), nil)
	})
	return &Dataset[U]{env: env, parts: out, partTag: tag}
}

func broadcastJoin[L, R, U any](l *Dataset[L], r *Dataset[R], lkey func(L) uint64, rkey func(R) uint64,
	newJoiner func(*Lane) func(L, R, func(U))) *Dataset[U] {
	env := l.env
	build := broadcast(l)
	env.beginStage(kindJoin)
	out := runStage(env, len(r.parts), func(a *attempt) ([]U, work) {
		// A non-owned partition's probe side is empty by construction, but the
		// build side is the full broadcast slice — constructing its hash table
		// would be pure waste and would double-charge CPU and memory that the
		// owning process already accounts for.
		if !env.owns(a.p) {
			return nil, work{}
		}
		return hashJoinPartition(a, build, r.parts[a.p], lkey, rkey, newJoiner(a.lane), nil)
	})
	return &Dataset[U]{env: env, parts: out}
}

// HashBuild is the build half of a repartition hash join, kept: the left
// input shuffled by key and, per partition, the hash table over it. A join
// whose left side does not change between rounds - the edge set of a
// variable-length expansion, the static path of a Flink bulk iteration -
// builds once and probes once per round, so the build side is shuffled,
// hashed and charged (CPU, network, governor memory) once, not per round.
// A HashBuild is immutable once Build returns; any number of Probe calls may
// read it.
type HashBuild[L any] struct {
	env    *Env
	rows   [][]L
	tables []joinTable
}

// Build shuffles l by key and builds every partition's hash table: one
// Shuffle stage and one Build stage, whose attempts are retried like any
// other's - a table is published only by the attempt that finished it.
func Build[L any](l *Dataset[L], key func(L) uint64) *HashBuild[L] {
	env := l.env
	ls := shuffle(l, key)
	if env.Failed() {
		return &HashBuild[L]{env: env, rows: ls.parts, tables: make([]joinTable, len(ls.parts))}
	}
	env.beginStage(kindBuild)
	tables := runStage(env, len(ls.parts), func(a *attempt) (joinTable, work) {
		return buildPartition(a, ls.parts[a.p], key, true)
	})
	return &HashBuild[L]{env: env, rows: ls.parts, tables: tables}
}

// Probe is the probe half: it shuffles r by key and joins each partition
// against b's table for it - one Shuffle stage and one Probe stage. Joiner
// contract, row order and charges are JoinWith's under RepartitionHash,
// minus the build side's.
func Probe[L, R, U any](b *HashBuild[L], r *Dataset[R], rkey func(R) uint64,
	newJoiner func(*Lane) func(L, R, func(U))) *Dataset[U] {
	env := b.env
	if mismatch(env, r.env, "Probe") || env.Failed() {
		return Empty[U](env)
	}
	rs := shuffle(r, rkey)
	env.beginStage(kindProbe)
	out := runStage(env, len(rs.parts), func(a *attempt) ([]U, work) {
		return probePartition(a, b.rows[a.p], &b.tables[a.p], rs.parts[a.p], rkey, newJoiner(a.lane), nil)
	})
	return &Dataset[U]{env: env, parts: out}
}

// joinTable is the build side of a hash join: for every slot of a
// power-of-two table the chain of build rows whose key hashes there, kept as
// indices into the build slice (1-based, 0 ends a chain) - three flat arrays
// whatever the number of distinct keys. Chains ascend, so a key's rows come
// out in the order they went in.
type joinTable struct {
	keys  []uint64 // key of each build row
	head  []int32  // per slot: first row of its chain
	next  []int32  // per build row: the next row of its chain
	shift uint     // 64 - log2(len(head))
	// overflow is the fraction of the build rows' accounted bytes beyond the
	// worker's simulated memory budget, 0 when they fit, and spilled that many
	// bytes: what a grace hash join keeps in partition files on disk, written
	// once and read back by every probe.
	overflow float64
	spilled  int64
}

// slot spreads keys by Fibonacci hashing, which takes the high bits of the
// product. The shuffle in front of a repartition join already fixed
// mix64(key) modulo the worker count for every key of a partition, so slots
// must not be taken from those bits.
func (t *joinTable) slot(key uint64) uint64 { return (key * 0x9e3779b97f4a7c15) >> t.shift }

// newJoinTable returns the empty table of a build side of rows rows. A kept
// table - Build's, which an expansion probes for ten hops - has arrays of its
// own. One that dies with the attempt that builds it (hashJoinPartition) is
// laid over the arrays of the attempt's lane, grown if this build side is the
// largest of the job so far: the slots are cleared, and keys and next hold
// what the lane's last table left there until buildPartition and link have
// written every one of them.
func newJoinTable(a *attempt, rows int, kept bool) (t joinTable) {
	if rows >= math.MaxInt32 {
		panic("dataflow: join build side exceeds 2^31-1 rows in one partition")
	}
	slotBits := 0
	if rows > 0 {
		slotBits = bits.Len(uint(2*rows - 1)) // at most half full
	}
	t.shift = uint(64 - slotBits)
	if kept {
		t.keys = make([]uint64, rows)
		t.head = make([]int32, 1<<slotBits)
		t.next = make([]int32, rows)
		return t
	}
	lane := a.lane
	lane.keys = grown(lane.keys, rows)
	lane.head = grown(lane.head, 1<<slotBits)
	lane.next = grown(lane.next, rows)
	clear(lane.head)
	t.keys, t.head, t.next = lane.keys, lane.head, lane.next
	return t
}

// link threads every row into its slot's chain, last row first so that each
// chain ends up in ascending row order.
func (t *joinTable) link() {
	for i := len(t.keys) - 1; i >= 0; i-- {
		s := t.slot(t.keys[i])
		t.next[i] = t.head[s]
		t.head[s] = int32(i + 1)
	}
}

// perRow is what an outer, a semi or an anti join adds to the probe loop.
type perRow[L, R, U any] struct {
	// after is called once per probe row, behind its matches.
	after func(R, func(U))
	// match, if set, stands in for the joiner: the join tests a probe row's
	// key matches, merges none, and the first true ends the row's walk.
	match func(L, R) bool
}

// hashJoinPartition builds a hash table over the left side and probes it
// with the right side, in one attempt, which is why the table is the lane's.
func hashJoinPartition[L, R, U any](a *attempt, left []L, right []R, lkey func(L) uint64, rkey func(R) uint64,
	joiner func(L, R, func(U)), row *perRow[L, R, U]) ([]U, work) {
	table, built := buildPartition(a, left, lkey, false)
	if a.dead {
		return nil, work{}
	}
	res, probed := probePartition(a, left, &table, right, rkey, joiner, row)
	return res, built.plus(probed)
}

// buildPartition fills and links the hash table over left. Its work is the
// build side's: its CPU and, if it exceeds the worker's simulated memory
// budget, the write of the excess to a grace hash join's partition files;
// the table is real materialized memory and is held as it grows, so an
// oversized build side dies before it is complete. A dead attempt's table is
// not linked. kept is newJoinTable's.
func buildPartition[L any](a *attempt, left []L, lkey func(L) uint64, kept bool) (joinTable, work) {
	table := newJoinTable(a, len(left), kept)
	lsz := sizingOf[L]()
	var buildBytes int64
	for i := range left {
		if a.in = int64(i); !a.tick(i) {
			return joinTable{}, work{}
		}
		table.keys[i] = lkey(left[i])
		n := lsz.of(&left[i])
		buildBytes += n
		a.hold(n)
	}
	if !a.flush() {
		return joinTable{}, work{}
	}
	table.link()
	if mem := a.env.cfg.MemoryPerWorker; mem > 0 && buildBytes > mem {
		table.overflow = float64(buildBytes-mem) / float64(buildBytes)
		table.spilled = int64(table.overflow * float64(buildBytes))
	}
	n := int64(len(left))
	return table, work{cpu: n, rowsIn: n, spill: table.spilled}
}

// probePartition walks table, built over left, with the right side and calls
// the joiner on every key match; row, if there is one, adds what an outer or a
// semi join does per probe row (OuterJoinWith, SemiJoinWith). Of a build side
// that overflowed, it reads the spilled share back and sends the same share of
// the probe side to disk and back - so a plain join pays the grace hash join's
// write and read of both sides, and a kept build side is written once and read
// once per probe (Flink's re-openable hash table).
//
// It walks the table once, writing what the joiner emits into the lane's
// staging buffer, and publishes a copy of exactly the rows written: the
// partition is allocated at what the key tests and the joiner let through,
// not at the pairs that agree on their key. A join that only tests its pairs
// (row.match) leaves a key's chain at the first pair that passes.
func probePartition[L, R, U any](a *attempt, left []L, table *joinTable, right []R, rkey func(R) uint64,
	joiner func(L, R, func(U)), row *perRow[L, R, U]) ([]U, work) {
	w := work{cpu: int64(len(right)), rowsIn: int64(len(right))}
	if table.overflow > 0 {
		probeBytes := sizingOf[R]().sum(right)
		w.spill = table.spilled + 2*int64(table.overflow*float64(probeBytes))
	}
	res, emit := stage[U](a)
	// ops counts probes plus visited pairs so that both many-small-buckets
	// and few-huge-buckets probe patterns poll for cancellation promptly.
	// The memory flush shares the cadence: a cartesian blowup's output is
	// charged — and killed — every mask+1 visited pairs.
	var ops int
	for r, rv := range right {
		if a.in = int64(r); !a.tick(ops) {
			return nil, work{}
		}
		ops++
		k := rkey(rv)
		for i := table.head[table.slot(k)]; i != 0; i = table.next[i-1] {
			if table.keys[i-1] != k {
				continue
			}
			if !a.tick(ops) {
				return nil, work{}
			}
			ops++
			if joiner != nil {
				joiner(left[i-1], rv, emit)
			} else if row.match(left[i-1], rv) {
				break
			}
		}
		if row != nil {
			row.after(rv, emit)
		}
	}
	w.rowsOut = int64(len(*res))
	return publish(*res), w
}
