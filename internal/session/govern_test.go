package session

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gradoop/internal/govern"
)

// blowupQuery is the adversarial cartesian product the ISSUE motivates: no
// connecting pattern, so the result is |V|^5 materialized embeddings —
// enough to blow every budget these tests configure.
const blowupQuery = `MATCH (a),(b),(c),(d),(e) RETURN a, b, c, d, e`

// wellBehavedQuery is small, oracle-checkable traffic (5 knows edges).
const wellBehavedQuery = `MATCH (a:Person)-[:knows]->(b:Person) RETURN a.name, b.name`

// TestMemoryBudgetKill: under a tiny process budget the cartesian blowup is
// killed with a structured, classified KindMemoryBudget error, and the
// broker's reservations drain back to zero — no leaked bytes.
func TestMemoryBudgetKill(t *testing.T) {
	s := New(testGraph(4), Options{MemoryBudget: 4 << 10})
	_, err := s.Execute(Request{Query: blowupQuery})
	if err == nil {
		t.Fatal("blowup should be killed by the memory budget")
	}
	if KindOf(err) != KindMemoryBudget {
		t.Fatalf("KindOf = %v, want KindMemoryBudget (%v)", KindOf(err), err)
	}
	if !errors.Is(err, govern.ErrMemoryBudget) {
		t.Fatalf("err must match govern.ErrMemoryBudget, got %v", err)
	}
	var be *govern.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err must carry *govern.BudgetError, got %v", err)
	}
	m := s.Metrics()
	if m.MemoryKilled != 1 || m.MemKills < 1 {
		t.Errorf("MemoryKilled=%d MemKills=%d, want 1/>=1", m.MemoryKilled, m.MemKills)
	}
	if got := s.Broker().Reserved(); got != 0 {
		t.Errorf("broker holds %d B after the kill, want 0 (leaked reservation)", got)
	}
	if s.Broker().Live() != 0 {
		t.Errorf("live reservations = %d, want 0", s.Broker().Live())
	}
}

// TestOptionalBlowupIsShedLikeAJoin: an OPTIONAL MATCH that shares no
// variable with the mandatory pattern is a product - 1 000 persons x 6 000
// comments on LDBC SF 1 - and dies of the memory budget as the same product
// written as a plain MATCH does, well inside its 200 ms deadline (some 10 ms).
// When an outer join's key group ran in a loop the engine could not poll, the
// query saw neither the budget nor the deadline for 1.5 s and 917 MiB of
// allocation, and came back `timeout`. The race detector makes the 10 ms 180,
// so under it - and only under it - the clock is ten times as generous; the
// kind of the error is held either way.
func TestOptionalBlowupIsShedLikeAJoin(t *testing.T) {
	deadline := 200 * time.Millisecond
	if raceDetector {
		deadline *= 10
	}
	s := New(ldbcGraph(t, 1), Options{MemoryBudget: 2 << 20, DefaultTimeout: deadline})
	// The kind is held on every run; the clock on the best of three, so that a
	// neighbour's test binary taking the CPU is not this test's failure.
	best := deadline
	for range 3 {
		start := time.Now()
		_, err := s.Execute(Request{Query: `MATCH (a:Person) OPTIONAL MATCH (m:Comment) RETURN a, m`})
		elapsed := time.Since(start)
		if KindOf(err) != KindMemoryBudget {
			t.Fatalf("KindOf = %v after %v, want KindMemoryBudget (%v)", KindOf(err), elapsed, err)
		}
		best = min(best, elapsed)
	}
	if best > deadline/2 {
		t.Errorf("shed after %v, want well inside the %v deadline", best, deadline)
	}
	t.Logf("shed after %v of a %v deadline", best, deadline)
	if got := s.Broker().Reserved(); got != 0 {
		t.Errorf("broker holds %d B after the kill, want 0", got)
	}
	if got := s.Broker().Live(); got != 0 {
		t.Errorf("live reservations = %d, want 0", got)
	}
}

// TestGovernedSessionParity: with an ample budget, governed execution
// returns exactly the ungoverned results, and releases everything.
func TestGovernedSessionParity(t *testing.T) {
	plain := New(testGraph(4), Options{})
	governed := New(testGraph(4), Options{MemoryBudget: 1 << 30})
	want, err := plain.Execute(Request{Query: wellBehavedQuery})
	if err != nil {
		t.Fatal(err)
	}
	got, err := governed.Execute(Request{Query: wellBehavedQuery})
	if err != nil {
		t.Fatalf("governed execution failed: %v", err)
	}
	if got.Count != want.Count || len(got.Result.Rows()) != len(want.Result.Rows()) {
		t.Errorf("governed count=%d rows=%d, want %d/%d", got.Count, len(got.Result.Rows()), want.Count, len(want.Result.Rows()))
	}
	if got.Metrics.TotalMem == 0 {
		t.Error("governed job should account materialized bytes")
	}
	m := governed.Metrics()
	if m.MemKills != 0 || m.MemoryKilled != 0 {
		t.Errorf("ample budget must not kill: %+v", m)
	}
	// The result cache may legitimately hold broker bytes; beyond that the
	// query's own reservation must be gone.
	cacheBytes, _ := governed.results.usage()
	if got := governed.Broker().Reserved(); got != cacheBytes {
		t.Errorf("broker holds %d B, cache accounts %d B — leaked query reservation", got, cacheBytes)
	}
}

// TestBrownoutReclaimsResultCache: cached results reserve broker bytes; a
// blowup under pressure browns the cache out (bytes handed back, cache
// emptied) before queries are killed for them.
func TestBrownoutReclaimsResultCache(t *testing.T) {
	s := New(testGraph(4), Options{MemoryBudget: 64 << 10})
	if _, err := serve(s, Request{Query: wellBehavedQuery}); err != nil {
		t.Fatal(err)
	}
	cached, _ := s.results.usage()
	if cached == 0 {
		t.Fatal("setup: result cache should hold the first query's bytes")
	}
	if got := s.Broker().Reserved(); got != cached {
		t.Fatalf("cache bytes not reserved with the broker: reserved=%d cached=%d", got, cached)
	}
	// The blowup exhausts the budget; the brownout must fire and empty the
	// cache regardless of the blowup's own fate.
	if _, err := s.Execute(Request{Query: blowupQuery}); err == nil {
		t.Fatal("blowup should be killed under a 64 KiB budget")
	}
	if s.Broker().Brownouts() == 0 {
		t.Error("expected a brownout before killing")
	}
	if bytes, entries := s.results.usage(); bytes != 0 || entries != 0 {
		t.Errorf("cache not browned out: %d B in %d entries", bytes, entries)
	}
	if got := s.Broker().Reserved(); got != 0 {
		t.Errorf("broker holds %d B after brownout + kill, want 0", got)
	}
}

// TestShedLargestKeepsWellBehavedTraffic: with largest-query-first shedding,
// a concurrent blowup dies and the small queries all succeed.
func TestShedLargestKeepsWellBehavedTraffic(t *testing.T) {
	s := New(testGraph(4), Options{
		MemoryBudget:  128 << 10,
		ShedPolicy:    govern.ShedLargest,
		MaxConcurrent: 4,
		MaxQueued:     64,
		NoResultCache: true,
	})
	var wg sync.WaitGroup
	var killErr atomic.Value
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.Execute(Request{Query: blowupQuery}); err != nil {
			killErr.Store(err)
		}
	}()
	var smallFail atomic.Value
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := s.Execute(Request{Query: wellBehavedQuery})
			if err != nil {
				smallFail.Store(err)
				return
			}
			if r.Count != 5 {
				smallFail.Store(errorsNewf("count = %d, want 5", r.Count))
			}
		}()
	}
	wg.Wait()
	if err := smallFail.Load(); err != nil {
		t.Fatalf("well-behaved query failed under shedding: %v", err)
	}
	err, _ := killErr.Load().(error)
	if err == nil {
		t.Fatal("the blowup should have been killed")
	}
	if KindOf(err) != KindMemoryBudget {
		t.Fatalf("blowup kind = %v, want KindMemoryBudget (%v)", KindOf(err), err)
	}
	if got := s.Broker().Reserved(); got != 0 {
		t.Errorf("broker holds %d B after the run, want 0", got)
	}
}

// TestHeadroomAdmission: a request holding a job slot is not admitted while
// the broker has no headroom, and proceeds once reservations release.
func TestHeadroomAdmission(t *testing.T) {
	b := govern.NewBroker(1000, govern.ShedLargest)
	g := newGate(1, 4)
	g.broker = b

	hog := b.Begin("hog")
	if err := hog.Reserve(1000); err != nil {
		t.Fatal(err)
	}

	// Cancelled while waiting for headroom: the slot must be handed back.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := g.acquire(ctx)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if g.inFlight() != 1 {
		t.Fatalf("headroom waiter should hold the slot while queued, inFlight=%d", g.inFlight())
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("acquire = %v, want context.Canceled", err)
	}
	if g.inFlight() != 0 {
		t.Fatalf("slot leaked on the cancelled headroom wait: inFlight=%d", g.inFlight())
	}

	// Deadline expiring during the headroom wait behaves the same.
	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer dcancel()
	if _, err := g.acquire(dctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("acquire = %v, want DeadlineExceeded", err)
	}
	if g.inFlight() != 0 {
		t.Fatalf("slot leaked on the expired headroom wait: inFlight=%d", g.inFlight())
	}

	// Headroom opening admits the waiter.
	go func() {
		_, err := g.acquire(context.Background())
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	hog.Release()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("acquire after release: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("acquire did not wake when headroom opened")
	}
	if g.inFlight() != 1 {
		t.Fatalf("admitted request should hold the slot, inFlight=%d", g.inFlight())
	}
	g.release()
}

// TestGateSlotBalanceUnderRace hammers acquire/release with cancellations,
// queue-full rejections and headroom stalls concurrently: whatever the exit
// path, the slot count must balance to zero. Run with -race.
func TestGateSlotBalanceUnderRace(t *testing.T) {
	b := govern.NewBroker(1<<20, govern.ShedLargest)
	g := newGate(2, 2)
	g.broker = b
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(j%5)*time.Millisecond)
				if _, err := g.acquire(ctx); err == nil {
					// Occupy the broker briefly so some acquires stall on
					// headroom too.
					r := b.Begin("w")
					_ = r.Reserve(1 << 19)
					time.Sleep(time.Duration(j%3) * 100 * time.Microsecond)
					r.Release()
					g.release()
				}
				cancel()
			}
		}(i)
	}
	wg.Wait()
	if g.inFlight() != 0 {
		t.Fatalf("slots out of balance after hammer: inFlight=%d", g.inFlight())
	}
	if g.queued() != 0 {
		t.Fatalf("queue counter out of balance: %d", g.queued())
	}
	if b.Reserved() != 0 {
		t.Fatalf("broker out of balance: %d B", b.Reserved())
	}
}

// TestMetricsSnapshotUntornWithGovernance: concurrent pollers reading
// Session.Metrics while governed queries (including killed blowups) complete
// must never see torn cluster state — the PR 5 guarantee extended to the
// new memory fields.
func TestMetricsSnapshotUntornWithGovernance(t *testing.T) {
	s := New(testGraph(4), Options{
		MemoryBudget:  256 << 10,
		MaxConcurrent: 4,
		MaxQueued:     64,
		NoResultCache: true,
	})
	stop := make(chan struct{})
	var pollErr atomic.Value
	var pollers sync.WaitGroup
	for i := 0; i < 3; i++ {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				m := s.Metrics()
				var sum int64
				for _, v := range m.Cluster.MemBytes {
					sum += v
				}
				// Clone under the merge lock: per-worker breakdown and total
				// must agree in every observed snapshot.
				if sum != m.Cluster.TotalMem {
					pollErr.Store(errorsNewf("torn snapshot: sum(MemBytes)=%d TotalMem=%d", sum, m.Cluster.TotalMem))
					return
				}
				if m.MemReserved < 0 || m.MemReserved > m.MemBudget {
					pollErr.Store(errorsNewf("impossible gauge: reserved=%d budget=%d", m.MemReserved, m.MemBudget))
					return
				}
			}
		}()
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				q := wellBehavedQuery
				if (i+j)%4 == 0 {
					q = blowupQuery
				}
				_, _ = s.Execute(Request{Query: q})
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	pollers.Wait()
	if err := pollErr.Load(); err != nil {
		t.Fatal(err)
	}
	if got := s.Broker().Reserved(); got != 0 {
		t.Errorf("broker holds %d B after the run, want 0", got)
	}
}
