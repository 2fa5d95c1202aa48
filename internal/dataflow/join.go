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
	return JoinTagged(l, r, lkey, rkey, joiner, hint, 0)
}

// JoinTagged is Join with partition reuse: tag identifies the logical join
// key. Inputs already partitioned under tag skip their shuffle, and the
// result is marked as partitioned under tag (a repartition hash join leaves
// output rows on the partition their key hashes to).
func JoinTagged[L, R, U any](l *Dataset[L], r *Dataset[R], lkey func(L) uint64, rkey func(R) uint64,
	joiner func(L, R, func(U)), hint JoinHint, tag uint64) *Dataset[U] {
	return JoinWith(l, r, lkey, rkey, func() func(L, R, func(U)) { return joiner }, hint, tag)
}

// JoinWith is JoinTagged for a joiner that keeps state: newJoiner is called
// once per partition attempt (see FlatMapWith). The key functions stay
// shared and must stay pure.
func JoinWith[L, R, U any](l *Dataset[L], r *Dataset[R], lkey func(L) uint64, rkey func(R) uint64,
	newJoiner func() func(L, R, func(U)), hint JoinHint, tag uint64) *Dataset[U] {
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

func repartitionJoin[L, R, U any](l *Dataset[L], r *Dataset[R], lkey func(L) uint64, rkey func(R) uint64,
	newJoiner func() func(L, R, func(U)), tag uint64) *Dataset[U] {
	env := l.env
	ls := shuffleTagged(l, lkey, tag)
	rs := shuffleTagged(r, rkey, tag)
	env.beginStage("Join", false)
	w := len(ls.parts)
	out := make([][]U, w)
	env.runParts(w, func(p int) {
		res := hashJoinPartition(env, p, ls.parts[p], rs.parts[p], lkey, rkey, newJoiner())
		env.traceRowsIn(p, int64(len(ls.parts[p])+len(rs.parts[p])))
		env.traceRowsOut(p, int64(len(res)))
		out[p] = res
	})
	return &Dataset[U]{env: env, parts: out, partTag: tag}
}

func broadcastJoin[L, R, U any](l *Dataset[L], r *Dataset[R], lkey func(L) uint64, rkey func(R) uint64,
	newJoiner func() func(L, R, func(U))) *Dataset[U] {
	env := l.env
	build := broadcast(l)
	env.beginStage("Join", false)
	w := len(r.parts)
	out := make([][]U, w)
	env.runParts(w, func(p int) {
		// A non-owned partition's probe side is empty by construction, but the
		// build side is the full broadcast slice — constructing its hash table
		// would be pure waste and would double-charge CPU and memory that the
		// owning process already accounts for.
		if env.transport != nil && !env.transport.Owns(p) {
			return
		}
		res := hashJoinPartition(env, p, build, r.parts[p], lkey, rkey, newJoiner())
		env.traceRowsIn(p, int64(len(build)+len(r.parts[p])))
		env.traceRowsOut(p, int64(len(res)))
		out[p] = res
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
	b := &HashBuild[L]{env: env, rows: ls.parts, tables: make([]joinTable, len(ls.parts))}
	if env.Failed() {
		return b
	}
	env.beginStage("Build", false)
	env.runParts(len(b.rows), func(p int) {
		table, ok := buildPartition(env, p, b.rows[p], key)
		if !ok {
			return
		}
		env.traceRowsIn(p, int64(len(b.rows[p])))
		b.tables[p] = table
	})
	return b
}

// Probe is the probe half: it shuffles r by key and joins each partition
// against b's table for it - one Shuffle stage and one Probe stage. Joiner
// contract, row order and charges are JoinWith's under RepartitionHash,
// minus the build side's.
func Probe[L, R, U any](b *HashBuild[L], r *Dataset[R], rkey func(R) uint64,
	newJoiner func() func(L, R, func(U))) *Dataset[U] {
	env := b.env
	if mismatch(env, r.env, "Probe") || env.Failed() {
		return Empty[U](env)
	}
	rs := shuffle(r, rkey)
	env.beginStage("Probe", false)
	w := len(rs.parts)
	out := make([][]U, w)
	env.runParts(w, func(p int) {
		res := probePartition(env, p, b.rows[p], &b.tables[p], rs.parts[p], rkey, newJoiner())
		env.traceRowsIn(p, int64(len(rs.parts[p])))
		env.traceRowsOut(p, int64(len(res)))
		out[p] = res
	})
	return &Dataset[U]{env: env, parts: out}
}

// CoGroup groups both inputs by key and hands each key's complete groups to
// f — Flink's coGroup transformation. Keys appear in deterministic order:
// left-side keys in first-occurrence order, then right-only keys. A left
// key with no right partner receives an empty right group (the building
// block of outer joins, e.g. OPTIONAL MATCH).
func CoGroup[L, R, U any](l *Dataset[L], r *Dataset[R], lkey func(L) uint64, rkey func(R) uint64,
	f func(key uint64, ls []L, rs []R, emit func(U))) *Dataset[U] {
	env := l.env
	if mismatch(l.env, r.env, "CoGroup") || env.Failed() {
		return Empty[U](env)
	}
	ls := shuffle(l, lkey)
	rs := shuffle(r, rkey)
	env.beginStage("CoGroup", false)
	w := len(ls.parts)
	out := make([][]U, w)
	lsz, rsz, usz := sizingOf[L](), sizingOf[R](), sizingOf[U]()
	env.runParts(w, func(p int) {
		var mem int64
		leftGroups := map[uint64][]L{}
		var order []uint64
		for i, lv := range ls.parts[p] {
			if i&cancelCheckMask == cancelCheckMask {
				if env.aborted() {
					return
				}
				if !env.chargeMem(p, mem) {
					return
				}
				mem = 0
			}
			k := lkey(lv)
			if _, ok := leftGroups[k]; !ok {
				order = append(order, k)
			}
			leftGroups[k] = append(leftGroups[k], lv)
			if env.governor != nil {
				mem += lsz.of(&ls.parts[p][i])
			}
		}
		rightGroups := map[uint64][]R{}
		var rightOnly []uint64
		for i, rv := range rs.parts[p] {
			if i&cancelCheckMask == cancelCheckMask {
				if env.aborted() {
					return
				}
				if !env.chargeMem(p, mem) {
					return
				}
				mem = 0
			}
			k := rkey(rv)
			if _, inLeft := leftGroups[k]; !inLeft {
				if _, ok := rightGroups[k]; !ok {
					rightOnly = append(rightOnly, k)
				}
			}
			rightGroups[k] = append(rightGroups[k], rv)
			if env.governor != nil {
				mem += rsz.of(&rs.parts[p][i])
			}
		}
		var res []U
		emit := func(u U) { res = append(res, u) }
		if env.governor != nil {
			emit = func(u U) { res = append(res, u); mem += usz.of(&res[len(res)-1]) }
		}
		for i, k := range order {
			if i&cancelCheckMask == cancelCheckMask {
				if env.aborted() {
					return
				}
				if !env.chargeMem(p, mem) {
					return
				}
				mem = 0
			}
			f(k, leftGroups[k], rightGroups[k], emit)
		}
		for i, k := range rightOnly {
			if i&cancelCheckMask == cancelCheckMask {
				if env.aborted() {
					return
				}
				if !env.chargeMem(p, mem) {
					return
				}
				mem = 0
			}
			f(k, nil, rightGroups[k], emit)
		}
		if !env.chargeMem(p, mem) {
			return
		}
		env.chargeCPU(p, int64(len(ls.parts[p])+len(rs.parts[p])))
		env.traceRowsIn(p, int64(len(ls.parts[p])+len(rs.parts[p])))
		env.traceRowsOut(p, int64(len(res)))
		out[p] = res
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

func newJoinTable(rows int) joinTable {
	if rows >= math.MaxInt32 {
		panic("dataflow: join build side exceeds 2^31-1 rows in one partition")
	}
	slotBits := 0
	if rows > 0 {
		slotBits = bits.Len(uint(2*rows - 1)) // at most half full
	}
	return joinTable{
		keys:  make([]uint64, rows),
		head:  make([]int32, 1<<slotBits),
		next:  make([]int32, rows),
		shift: uint(64 - slotBits),
	}
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

// hashJoinPartition builds a hash table over the left side and probes it
// with the right side, in one attempt.
func hashJoinPartition[L, R, U any](env *Env, p int, left []L, right []R,
	lkey func(L) uint64, rkey func(R) uint64, joiner func(L, R, func(U))) []U {
	table, ok := buildPartition(env, p, left, lkey)
	if !ok {
		return nil
	}
	return probePartition(env, p, left, &table, right, rkey, joiner)
}

// buildPartition fills and links the hash table over left and charges the
// build side: its CPU, its memory and, if it exceeds the worker's simulated
// memory budget, the write of the excess to a grace hash join's partition
// files. It reports false when the job was aborted or killed mid-build.
func buildPartition[L any](env *Env, p int, left []L, lkey func(L) uint64) (joinTable, bool) {
	table := newJoinTable(len(left))
	lsz := sizingOf[L]()
	var buildBytes, buildCharged int64
	for i := range left {
		if i&cancelCheckMask == cancelCheckMask {
			if env.aborted() {
				return joinTable{}, false
			}
			// The build table is real materialized memory: charge it as it
			// grows so an oversized build side dies before it is complete.
			if !env.chargeMem(p, buildBytes-buildCharged) {
				return joinTable{}, false
			}
			buildCharged = buildBytes
		}
		table.keys[i] = lkey(left[i])
		buildBytes += lsz.of(&left[i])
	}
	if !env.chargeMem(p, buildBytes-buildCharged) {
		return joinTable{}, false
	}
	table.link()
	if mem := env.cfg.MemoryPerWorker; mem > 0 && buildBytes > mem {
		table.overflow = float64(buildBytes-mem) / float64(buildBytes)
		table.spilled = int64(table.overflow * float64(buildBytes))
		env.chargeSpill(p, table.spilled)
	}
	env.chargeCPU(p, int64(len(left)))
	return table, true
}

// probePartition walks table, built over left, with the right side and calls
// the joiner on every key match. Of a build side that overflowed, it reads
// the spilled share back and sends the same share of the probe side to disk
// and back - so a plain join pays the grace hash join's write and read of
// both sides, and a kept build side is written once and read once per probe
// (Flink's re-openable hash table).
func probePartition[L, R, U any](env *Env, p int, left []L, table *joinTable, right []R,
	rkey func(R) uint64, joiner func(L, R, func(U))) []U {
	if table.overflow > 0 {
		probeBytes := sizingOf[R]().sum(right)
		env.chargeSpill(p, table.spilled+2*int64(table.overflow*float64(probeBytes)))
	}
	var res []U
	var mem int64
	emit := func(u U) { res = append(res, u) }
	if env.governor != nil {
		usz := sizingOf[U]()
		emit = func(u U) { res = append(res, u); mem += usz.of(&res[len(res)-1]) }
	}
	// ops counts probes plus emitted pairs so that both many-small-buckets
	// and few-huge-buckets probe patterns poll for cancellation promptly.
	// The memory flush shares the cadence: a cartesian blowup's output is
	// charged — and killed — every mask+1 emitted pairs.
	var ops int
	for _, rv := range right {
		if ops&cancelCheckMask == cancelCheckMask {
			if env.aborted() {
				return res
			}
			if !env.chargeMem(p, mem) {
				return nil
			}
			mem = 0
		}
		ops++
		k := rkey(rv)
		for i := table.head[table.slot(k)]; i != 0; i = table.next[i-1] {
			if table.keys[i-1] != k {
				continue
			}
			if ops&cancelCheckMask == cancelCheckMask {
				if env.aborted() {
					return res
				}
				if !env.chargeMem(p, mem) {
					return nil
				}
				mem = 0
			}
			ops++
			joiner(left[i-1], rv, emit)
		}
	}
	if !env.chargeMem(p, mem) {
		return nil
	}
	env.chargeCPU(p, int64(len(right)))
	return res
}
