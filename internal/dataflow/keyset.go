package dataflow

import (
	"encoding/binary"
	"fmt"
	"iter"
	"math/bits"
	"slices"
)

// KeySet is a set of 64-bit join keys, read-only once built: the keys of a
// join input that has run, which the input that has not run yet tests its
// pairs against before it merges them (semi-join reduction, DESIGN decision
// 40). It holds the keys' hashes, not their ids, so two keys that collide are
// one member: a test may say yes for a key that was never added, never no for
// one that was. It is safe for concurrent reads.
type KeySet struct {
	slots []uint64 // open addressing, a power of two at most half full; 0 is an empty slot
	shift uint     // 64 - log2(len(slots))
	zero  bool     // the key 0, which an empty slot stands for
	n     int
}

// newKeySet returns an empty set with room for n keys.
func newKeySet(n int) *KeySet {
	slotBits := bits.Len(uint(2*n - 1))
	if n == 0 {
		slotBits = 0
	}
	return &KeySet{slots: make([]uint64, 1<<slotBits), shift: uint(64 - slotBits)}
}

// slot is joinTable.slot: the high bits of a Fibonacci product, which the
// shuffle's low bits leave spread.
func (s *KeySet) slot(k uint64) uint64 { return (k * 0x9e3779b97f4a7c15) >> s.shift }

func (s *KeySet) add(k uint64) {
	if k == 0 {
		if !s.zero {
			s.zero = true
			s.n++
		}
		return
	}
	mask := uint64(len(s.slots) - 1)
	for i := s.slot(k); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case k:
			return
		case 0:
			s.slots[i] = k
			s.n++
			return
		}
	}
}

// Has reports whether k was added to the set, or a key whose hash it is.
func (s *KeySet) Has(k uint64) bool {
	if k == 0 {
		return s.zero
	}
	if s.n == 0 {
		return false
	}
	mask := uint64(len(s.slots) - 1)
	for i := s.slot(k); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case k:
			return true
		case 0:
			return false
		}
	}
}

// Len is the number of distinct keys in the set.
func (s *KeySet) Len() int { return s.n }

// All is the keys of the set, in no particular order.
func (s *KeySet) All() iter.Seq[uint64] {
	return func(yield func(uint64) bool) {
		if s.zero && !yield(0) {
			return
		}
		for _, k := range s.slots {
			if k != 0 && !yield(k) {
				return
			}
		}
	}
}

// keyLists is what the owned partitions of one Keys call all-gather: each
// one's distinct keys, a bucket of a count and eight bytes a key.
type keyLists [][]uint64

func (k keyLists) bucket(p int) (Bucket, error) {
	return Bucket{size: 4 + 8*len(k[p]), src: k, p: p}, nil
}

func (k keyLists) encodeBucket(p, _ int, w BucketWriter) error {
	if err := w.Write(binary.BigEndian.AppendUint32(w.Buffer(4), uint32(len(k[p])))); err != nil {
		return err
	}
	for _, key := range k[p] {
		if err := w.Write(binary.BigEndian.AppendUint64(w.Buffer(8), key)); err != nil {
			return err
		}
	}
	return nil
}

// keyCount is the number of keys a keyLists bucket holds, or an error if b
// is not one.
func keyCount(b []byte) (int, error) {
	if len(b) < 4 || len(b) != 4+8*int(binary.BigEndian.Uint32(b)) {
		return 0, fmt.Errorf("dataflow: bad key set frame (%d bytes)", len(b))
	}
	return int(binary.BigEndian.Uint32(b)), nil
}

// Keys returns the set of the keys of every element of d, of every process of
// the job: each owned partition's distinct keys, all-gathered once. newKeys is
// called once for every owned partition, in the partitions' order on one
// goroutine, and returns what appends an element's keys - one, none or
// several - to a partition's and returns them, so a function that walks from
// an element can keep what it walked for the rest of its partition and no
// further: a partition's keys are the same whichever process owns it. It is a
// stage of its own of the Broadcast kind - a collective, which puts bytes on
// the wire, in a stage of the shuffle kind - and it is charged as broadcast
// charges a replicated input: eight bytes a key shipped, to the network in
// every owned partition and to the memory governor once, by the owner of
// partition 0, so that the processes' metrics add up to the job's run in one. Without a transport it reads the local partitions and
// puts nothing on the wire. On failure it returns an empty set with the env
// failed.
func Keys[T any](d *Dataset[T], newKeys func() func(t T, keys []uint64) []uint64) *KeySet {
	env := d.env
	if env.Failed() {
		return newKeySet(0)
	}
	env.beginStage("Broadcast", true)
	// The owned partitions' keys go one after another into one array, sized
	// at one key an element; each partition's are sorted and compacted in
	// place, and the next one's go behind them.
	lists := make(keyLists, len(d.parts))
	var keys []uint64
	for p, part := range d.parts {
		if !env.owns(p) {
			continue
		}
		if keys == nil {
			keys = make([]uint64, 0, d.Count())
		}
		start := len(keys)
		key := newKeys()
		for i := range part {
			if i&cancelCheckMask == cancelCheckMask && env.aborted() {
				return newKeySet(0)
			}
			keys = key(part[i], keys)
		}
		own := keys[start:]
		slices.Sort(own)
		own = slices.Compact(own)
		lists[p] = own[:len(own):len(own)]
		keys = keys[:start+len(own)]
	}
	blobs, ok := env.allGather(lists.bucket)
	if !ok {
		return newKeySet(0)
	}
	// A peer's keys go from its frame straight into the set, which the
	// frames' counts size.
	shipped := 0
	for p := range lists {
		n := len(lists[p])
		if !env.owns(p) {
			var err error
			if n, err = keyCount(blobs[p]); err != nil {
				env.fail(&JobError{Stage: env.metrics.stageCount(), Partition: p, Cause: err})
				return newKeySet(0)
			}
		}
		shipped += n
	}
	set := newKeySet(shipped)
	for p := range lists {
		if env.owns(p) {
			for _, k := range lists[p] {
				set.add(k)
			}
			continue
		}
		for b := blobs[p][4:]; len(b) > 0; b = b[8:] {
			set.add(binary.BigEndian.Uint64(b))
		}
	}
	bytes := 8 * int64(shipped)
	if env.owns(0) && !env.chargeMem(0, bytes) {
		return newKeySet(0)
	}
	for q := range d.parts {
		if env.owns(q) {
			env.chargeNet(q, bytes)
			env.traceRowsOut(q, int64(shipped))
		}
	}
	return set
}
