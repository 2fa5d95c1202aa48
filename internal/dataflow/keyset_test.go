package dataflow

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"gradoop/internal/govern"
)

// keyParts is four partitions of keys, some repeated within a partition and
// some across them, with the key 0 in one.
var keyParts = [][]uint64{{5, 5, 9, 0}, {9, 12}, {}, {12, 40, 41, 5}}

// TestKeysIsTheSetOfEveryProcess: the set Keys builds is the same whoever owns
// which partition - every key of every partition, none other - and the
// processes' charges add up to what one process owning them all is charged:
// eight bytes a key a partition ships, on the net of every partition and once
// in the governor.
func TestKeysIsTheSetOfEveryProcess(t *testing.T) {
	ident := func(k uint64) uint64 { return k }
	single := NewEnv(DefaultConfig(4))
	single.Begin(nil)
	want := Keys(FromPartitions(single, keyParts), ident)
	if err := single.Finish(); err != nil {
		t.Fatal(err)
	}
	check := func(who string, s *KeySet) {
		t.Helper()
		for _, k := range []uint64{0, 5, 9, 12, 40, 41} {
			if !s.Has(k) {
				t.Errorf("%s: key %d missing", who, k)
			}
		}
		for _, k := range []uint64{1, 6, 13, 42, 1 << 63} {
			if s.Has(k) {
				t.Errorf("%s: key %d was never added", who, k)
			}
		}
		if s.Len() != 6 {
			t.Errorf("%s: %d keys, want 6", who, s.Len())
		}
	}
	check("one process", want)
	m := single.Metrics()
	// Shipped: 3 + 2 + 0 + 4 distinct keys of their partitions.
	if m.Stages != 1 || m.Shuffles != 1 || m.TotalNet != 4*8*9 {
		t.Fatalf("one process: %d stages, %d shuffles, net %d; want 1, 1 and %d", m.Stages, m.Shuffles, m.TotalNet, 4*8*9)
	}

	owner := []int{0, 1, 1, 0}
	c := newMemCluster(owner, 2)
	sets := make([]*KeySet, 2)
	nets := make([]int64, 2)
	var wg sync.WaitGroup
	for proc := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			env := NewEnv(DefaultConfig(4))
			env.SetTransport(c.transport(proc))
			env.Begin(nil)
			sets[proc] = Keys(FromPartitions(env, keyParts), ident)
			if err := env.Finish(); err != nil {
				t.Error(err)
			}
			nets[proc] = env.Metrics().TotalNet
		}()
	}
	wg.Wait()
	for proc, s := range sets {
		check(fmt.Sprintf("process %d", proc), s)
	}
	if nets[0]+nets[1] != m.TotalNet {
		t.Errorf("two processes charged net %d + %d, one process %d", nets[0], nets[1], m.TotalNet)
	}
}

// TestKeysOverBudget: a key set bigger than the memory budget fails the job
// with the structured budget error, and the set it returns is empty.
func TestKeysOverBudget(t *testing.T) {
	env, _, _ := governedEnv(t, 4, 8*9-1)
	env.Begin(nil)
	s := Keys(FromPartitions(env, keyParts), func(k uint64) uint64 { return k })
	if err := env.Finish(); !errors.Is(err, govern.ErrMemoryBudget) {
		t.Fatalf("err %v, want the budget error", err)
	}
	if s.Len() != 0 || s.Has(5) {
		t.Fatalf("a failed key set holds %d keys", s.Len())
	}
}

// TestKeysFromEmptyAndZeroFrames: a peer's frame of no keys adds nothing, and
// one that holds the key 0 - which the set keeps apart from its slots - adds
// it, on both processes of a job whose every key lives on one of them.
func TestKeysFromEmptyAndZeroFrames(t *testing.T) {
	for _, tc := range []struct {
		name  string
		parts [][]uint64
		want  []uint64
	}{
		{"no keys anywhere", [][]uint64{{}, {}, {}, {}}, nil},
		{"the key 0 alone", [][]uint64{{}, {0, 0}, {}, {}}, []uint64{0}},
		{"the key 0 and one other", [][]uint64{{}, {0}, {}, {7, 0}}, []uint64{0, 7}},
	} {
		c := newMemCluster([]int{0, 1, 1, 0}, 2)
		sets := make([]*KeySet, 2)
		var wg sync.WaitGroup
		for proc := range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				env := NewEnv(DefaultConfig(4))
				env.SetTransport(c.transport(proc))
				env.Begin(nil)
				sets[proc] = Keys(FromPartitions(env, tc.parts), func(k uint64) uint64 { return k })
				if err := env.Finish(); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		for proc, s := range sets {
			if s.Len() != len(tc.want) {
				t.Errorf("%s, process %d: %d keys, want %d", tc.name, proc, s.Len(), len(tc.want))
			}
			for _, k := range []uint64{0, 7, 8} {
				if got, want := s.Has(k), slices.Contains(tc.want, k); got != want {
					t.Errorf("%s, process %d: Has(%d) = %v, want %v", tc.name, proc, k, got, want)
				}
			}
		}
	}
}
