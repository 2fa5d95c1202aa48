package dataflow

import (
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
)

func TestShuffleTaggedSkipsRedundantExchange(t *testing.T) {
	e := env(4)
	d := FromSlice(e, ints(1000))
	key := func(x int) uint64 { return uint64(x % 7) }
	const tag = 42

	first := shuffleTagged(d, key, tag)
	m1 := e.Metrics()
	if m1.TotalNet == 0 {
		t.Fatal("first shuffle moved nothing")
	}
	second := shuffleTagged(first, key, tag)
	m2 := e.Metrics()
	if m2.TotalNet != m1.TotalNet {
		t.Fatalf("second shuffle moved data: %d -> %d", m1.TotalNet, m2.TotalNet)
	}
	if m2.Shuffles != m1.Shuffles {
		t.Fatal("second shuffle counted as an exchange")
	}
	if second.Count() != 1000 {
		t.Fatal("data lost")
	}
	// A different tag forces a real shuffle again.
	shuffleTagged(first, key, 43)
	if m3 := e.Metrics(); m3.Shuffles != m1.Shuffles+1 {
		t.Fatal("different tag should shuffle")
	}
}

func TestFilterPreservesPartitionTag(t *testing.T) {
	e := env(4)
	d := FromSlice(e, ints(100))
	key := func(x int) uint64 { return uint64(x) }
	tagged := shuffleTagged(d, key, 7)
	filtered := Filter(tagged, func(x int) bool { return x%2 == 0 })
	if filtered.partTag != 7 {
		t.Fatalf("filter dropped tag: %d", filtered.partTag)
	}
	mapped := Map(tagged, func(x int) int { return x + 1 })
	if mapped.partTag != 0 {
		t.Fatal("map must clear the tag (rows rewritten)")
	}
}

func TestUnionPartitionTag(t *testing.T) {
	e := env(3)
	key := func(x int) uint64 { return uint64(x) }
	a := shuffleTagged(FromSlice(e, ints(50)), key, 9)
	b := shuffleTagged(FromSlice(e, []int{100, 101}), key, 9)
	if Union(a, b).partTag != 9 {
		t.Fatal("union of same-tag inputs should keep tag")
	}
	c := shuffleTagged(FromSlice(e, []int{200}), key, 10)
	if Union(a, c).partTag != 0 {
		t.Fatal("union of different tags must clear tag")
	}
	if Union(a, Empty[int](e)).partTag != 9 {
		t.Fatal("union with empty should keep tag")
	}
}

// TestOuterJoinWith: after sees every probe row exactly once, behind that
// row's pairs and on the attempt's own state; a build row without a partner
// contributes nothing.
func TestOuterJoinWith(t *testing.T) {
	e := env(4)
	build := FromSlice(e, []int{2, 2, 3, 9})
	probe := FromSlice(e, []int{1, 1, 2, 3})
	key := func(x int) uint64 { return uint64(x) }
	type row struct{ probe, pairs int }
	out := OuterJoinWith(build, probe, key, key, func(*Lane) (func(int, int, func(row)), func(int, func(row))) {
		pairs := 0
		return func(b, p int, _ func(row)) {
				if b != p {
					t.Errorf("pair (%d, %d) does not agree on its key", b, p)
				}
				pairs++
			}, func(p int, emit func(row)) {
				emit(row{probe: p, pairs: pairs})
				pairs = 0
			}
	}).Collect()
	sort.Slice(out, func(i, j int) bool { return out[i].probe < out[j].probe })
	if want := []row{{1, 0}, {1, 0}, {2, 2}, {3, 1}}; !reflect.DeepEqual(out, want) {
		t.Fatalf("probe rows and their pair counts: %v, want %v", out, want)
	}
}

// TestSemiJoinWithStopsAtTheFirstMatch: a probe row is decided by the first
// pair its match accepts, and the rest of its key's chain is not walked - so
// an existence test over one key group costs its probe rows, not the product.
// A rejected pair does not end the walk, and after still sees every probe row
// once.
func TestSemiJoinWithStopsAtTheFirstMatch(t *testing.T) {
	const build, probe = 2000, 3000
	e := env(4)
	same := func(int) uint64 { return 7 }
	var pairs, rows atomic.Int64
	// accept is asked about the nth pair of a probe row.
	semi := func(accept func(nth int) bool) func(*Lane) (func(int, int) bool, func(int, func(int))) {
		return func(*Lane) (func(int, int) bool, func(int, func(int))) {
			nth, found := 0, false
			return func(int, int) bool { pairs.Add(1); nth++; found = accept(nth); return found },
				func(p int, emit func(int)) {
					rows.Add(1)
					if found {
						emit(p)
					}
					nth, found = 0, false
				}
		}
	}
	for _, tc := range []struct {
		name      string
		accept    func(nth int) bool
		pairs, in int64
	}{
		{"first pair", func(int) bool { return true }, probe, probe},
		{"fifth pair", func(nth int) bool { return nth == 5 }, 5 * probe, probe},
		{"no pair", func(int) bool { return false }, build * probe, 0},
	} {
		pairs.Store(0)
		rows.Store(0)
		n := SemiJoinWith(FromSlice(e, ints(build)), FromSlice(e, ints(probe)), same, same, semi(tc.accept)).Count()
		if got := pairs.Load(); got != tc.pairs {
			t.Errorf("%s: %d pairs tested, want %d", tc.name, got, tc.pairs)
		}
		if got := rows.Load(); got != probe {
			t.Errorf("%s: after saw %d probe rows, want %d", tc.name, got, probe)
		}
		if n != tc.in {
			t.Errorf("%s: %d rows kept, want %d", tc.name, n, tc.in)
		}
	}
}

func TestOuterJoinWithLeftOuterShape(t *testing.T) {
	e := env(2)
	l := FromSlice(e, []int{1, 2})
	r := FromSlice(e, []int{2})
	key := func(x int) uint64 { return uint64(x) }
	// A classic left outer join: the preserved side probes.
	out := OuterJoinWith(r, l, key, key, func(*Lane) (func(int, int, func([2]int)), func(int, func([2]int))) {
		matched := false
		return func(rv, lv int, emit func([2]int)) { matched = true; emit([2]int{lv, rv}) },
			func(lv int, emit func([2]int)) {
				if !matched {
					emit([2]int{lv, -1})
				}
				matched = false
			}
	}).Collect()
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	if len(out) != 2 || out[0] != [2]int{1, -1} || out[1] != [2]int{2, 2} {
		t.Fatalf("outer join: %v", out)
	}
}

func TestJoinWithReusesPartitioning(t *testing.T) {
	run := func(tag uint64) (MetricsSnapshot, []int) {
		e := env(4)
		l := FromSlice(e, ints(500))
		r := FromSlice(e, ints(500))
		key := func(x int) uint64 { return uint64(x) }
		pair := func(*Lane) func(a, b int, emit func(int)) { return func(a, b int, emit func(int)) { emit(a) } }
		j1 := JoinWith(l, r, key, key, pair, RepartitionHash, tag)
		// Second join on the same key: with a tag, j1 needs no reshuffle.
		j2 := JoinWith(j1, r, key, key, pair, RepartitionHash, tag)
		got := j2.Collect()
		sort.Ints(got)
		return e.Metrics(), got
	}
	tagged, resTagged := run(77)
	untagged, resUntagged := run(0)
	// The reused exchange would have moved no bytes (rows already sit on
	// their hash partition); the saving is the exchange stage and its scan.
	if tagged.Shuffles != untagged.Shuffles-1 {
		t.Fatalf("tagged should save one exchange: %d vs %d", tagged.Shuffles, untagged.Shuffles)
	}
	if tagged.TotalCPU >= untagged.TotalCPU {
		t.Fatalf("tagged joins should scan less: %d vs %d", tagged.TotalCPU, untagged.TotalCPU)
	}
	if len(resTagged) != len(resUntagged) {
		t.Fatalf("results differ: %d vs %d", len(resTagged), len(resUntagged))
	}
	for i := range resTagged {
		if resTagged[i] != resUntagged[i] {
			t.Fatal("partition reuse changed results")
		}
	}
}
