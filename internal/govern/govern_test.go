package govern

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNilBrokerIsFree(t *testing.T) {
	var b *Broker
	if b := NewBroker(0, ShedLargest); b != nil {
		t.Fatalf("NewBroker(0) = %v, want nil", b)
	}
	if !b.HasHeadroom() {
		t.Fatal("nil broker must always have headroom")
	}
	if !b.TryReserve(1 << 40) {
		t.Fatal("nil broker must admit any cache reservation")
	}
	b.ReleaseBytes(1 << 40)
	b.AddReclaimer(func() int64 { return 0 })
	if err := b.AwaitHeadroom(context.Background()); err != nil {
		t.Fatalf("AwaitHeadroom on nil broker: %v", err)
	}
	if b.Budget() != 0 || b.Reserved() != 0 || b.Kills() != 0 || b.Sheds() != 0 || b.Brownouts() != 0 || b.Live() != 0 {
		t.Fatal("nil broker accessors must return zero")
	}

	r := b.Begin("q")
	if r != nil {
		t.Fatalf("nil broker Begin = %v, want nil", r)
	}
	if err := r.Reserve(1 << 40); err != nil {
		t.Fatalf("nil reservation Reserve: %v", err)
	}
	if r.Used() != 0 || r.KillErr() != nil || r.Label() != "" {
		t.Fatal("nil reservation accessors must be zero")
	}
	r.OnKill(func() { t.Fatal("nil reservation must never kill") })
	r.Release()
}

func TestReserveReleaseAccounting(t *testing.T) {
	b := NewBroker(1000, ShedLargest)
	r1 := b.Begin("a")
	r2 := b.Begin("b")
	if err := r1.Reserve(300); err != nil {
		t.Fatalf("r1.Reserve: %v", err)
	}
	if err := r2.Reserve(400); err != nil {
		t.Fatalf("r2.Reserve: %v", err)
	}
	if got := b.Reserved(); got != 700 {
		t.Fatalf("Reserved = %d, want 700", got)
	}
	if r1.Used() != 300 || r2.Used() != 400 {
		t.Fatalf("Used = %d/%d, want 300/400", r1.Used(), r2.Used())
	}
	r1.Release()
	if got := b.Reserved(); got != 400 {
		t.Fatalf("Reserved after r1.Release = %d, want 400", got)
	}
	r1.Release() // idempotent
	if got := b.Reserved(); got != 400 {
		t.Fatalf("Reserved after double release = %d, want 400", got)
	}
	r2.Release()
	if got := b.Reserved(); got != 0 {
		t.Fatalf("Reserved after all releases = %d, want 0", got)
	}
	if b.Kills() != 0 || b.Live() != 0 {
		t.Fatalf("kills=%d live=%d, want 0/0", b.Kills(), b.Live())
	}
}

func TestShedSelfKillsTheReserver(t *testing.T) {
	b := NewBroker(100, ShedSelf)
	small := b.Begin("small")
	big := b.Begin("big")
	if err := small.Reserve(80); err != nil {
		t.Fatalf("small.Reserve: %v", err)
	}
	err := big.Reserve(50)
	if err == nil {
		t.Fatal("big.Reserve should exceed the budget")
	}
	if !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("err = %v, want ErrMemoryBudget", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %T, want *BudgetError", err)
	}
	if be.Shed {
		t.Fatal("ShedSelf kill must have Shed=false")
	}
	if be.Label != "big" || be.Requested != 50 || be.Budget != 100 {
		t.Fatalf("BudgetError = %+v", be)
	}
	if small.KillErr() != nil {
		t.Fatal("ShedSelf must not touch the well-behaved query")
	}
	if b.Kills() != 1 || b.Sheds() != 0 {
		t.Fatalf("kills=%d sheds=%d, want 1/0", b.Kills(), b.Sheds())
	}
	// The killed query stays killed: further reserves fail with the same error.
	if err2 := big.Reserve(1); !errors.Is(err2, ErrMemoryBudget) {
		t.Fatalf("reserve after kill = %v, want ErrMemoryBudget", err2)
	}
	if b.Kills() != 1 {
		t.Fatalf("kill must be idempotent, kills=%d", b.Kills())
	}
	big.Release()
	small.Release()
	if b.Reserved() != 0 {
		t.Fatalf("Reserved = %d after releases, want 0", b.Reserved())
	}
}

func TestShedLargestKillsTheBiggestQuery(t *testing.T) {
	b := NewBroker(100, ShedLargest)
	hog := b.Begin("hog")
	small := b.Begin("small")
	if err := hog.Reserve(90); err != nil {
		t.Fatalf("hog.Reserve: %v", err)
	}
	killed := make(chan struct{})
	hog.OnKill(func() { close(killed) })
	// The small query's overflow sheds the hog, and the small query proceeds.
	if err := small.Reserve(20); err != nil {
		t.Fatalf("small.Reserve should survive via shedding, got %v", err)
	}
	select {
	case <-killed:
	default:
		t.Fatal("hog OnKill did not fire")
	}
	err := hog.KillErr()
	if !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("hog.KillErr = %v, want ErrMemoryBudget", err)
	}
	var be *BudgetError
	errors.As(err, &be)
	if !be.Shed || be.Label != "hog" || be.Held != 90 {
		t.Fatalf("BudgetError = %+v, want shed of hog holding 90", be)
	}
	if b.Kills() != 1 || b.Sheds() != 1 {
		t.Fatalf("kills=%d sheds=%d, want 1/1", b.Kills(), b.Sheds())
	}
	hog.Release()
	small.Release()
	if b.Reserved() != 0 || b.Live() != 0 {
		t.Fatalf("reserved=%d live=%d after releases, want 0/0", b.Reserved(), b.Live())
	}
}

func TestShedLargestFallsBackToSelf(t *testing.T) {
	// The reserver is the only (and largest) live query: it must die itself.
	b := NewBroker(100, ShedLargest)
	r := b.Begin("only")
	err := r.Reserve(150)
	if !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("err = %v, want ErrMemoryBudget", err)
	}
	var be *BudgetError
	errors.As(err, &be)
	if be.Shed {
		t.Fatal("self-kill must have Shed=false")
	}
	r.Release()
}

func TestOnKillAfterKillFiresImmediately(t *testing.T) {
	b := NewBroker(10, ShedSelf)
	r := b.Begin("q")
	if err := r.Reserve(20); !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("Reserve = %v, want kill", err)
	}
	fired := false
	r.OnKill(func() { fired = true })
	if !fired {
		t.Fatal("OnKill registered after the kill must fire immediately")
	}
	r.Release()
}

func TestBrownoutReclaimAvoidsKill(t *testing.T) {
	b := NewBroker(100, ShedLargest)
	// Cache holds 60 of the 100-byte budget.
	if !b.TryReserve(60) {
		t.Fatal("cache TryReserve should fit")
	}
	var reclaimed atomic.Int64
	b.AddReclaimer(func() int64 {
		// Brownout: hand the cache bytes back (atomics only — no locks).
		b.ReleaseBytes(60)
		reclaimed.Add(60)
		return 60
	})
	q := b.Begin("q")
	// 80 > remaining 40, but reclaim frees the cache and the query proceeds.
	if err := q.Reserve(80); err != nil {
		t.Fatalf("Reserve should survive via brownout, got %v", err)
	}
	if reclaimed.Load() != 60 {
		t.Fatalf("reclaimed = %d, want 60", reclaimed.Load())
	}
	if b.Brownouts() != 1 {
		t.Fatalf("Brownouts = %d, want 1", b.Brownouts())
	}
	if b.Kills() != 0 {
		t.Fatalf("Kills = %d, want 0", b.Kills())
	}
	q.Release()
	if b.Reserved() != 0 {
		t.Fatalf("Reserved = %d, want 0", b.Reserved())
	}
}

func TestTryReserveNeverKills(t *testing.T) {
	b := NewBroker(100, ShedLargest)
	q := b.Begin("q")
	if err := q.Reserve(90); err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	// A cache reservation that does not fit simply fails; the query lives.
	if b.TryReserve(20) {
		t.Fatal("TryReserve should fail over budget")
	}
	if q.KillErr() != nil || b.Kills() != 0 {
		t.Fatal("TryReserve must never kill a query")
	}
	if !b.TryReserve(10) {
		t.Fatal("TryReserve should admit a fitting reservation")
	}
	b.ReleaseBytes(10)
	q.Release()
}

func TestAwaitHeadroom(t *testing.T) {
	b := NewBroker(100, ShedLargest)
	q := b.Begin("hog")
	if err := q.Reserve(100); err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	if b.HasHeadroom() {
		t.Fatal("no headroom expected at full budget")
	}

	// Cancellation while waiting.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := b.AwaitHeadroom(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("AwaitHeadroom on cancelled ctx = %v, want Canceled", err)
	}

	// Release wakes the waiter.
	done := make(chan error, 1)
	go func() { done <- b.AwaitHeadroom(context.Background()) }()
	time.Sleep(10 * time.Millisecond)
	q.Release()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("AwaitHeadroom after release: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("AwaitHeadroom did not wake on release")
	}
}

func TestParsePolicy(t *testing.T) {
	if p, err := ParsePolicy("largest"); err != nil || p != ShedLargest {
		t.Fatalf("ParsePolicy(largest) = %v, %v", p, err)
	}
	if p, err := ParsePolicy("self"); err != nil || p != ShedSelf {
		t.Fatalf("ParsePolicy(self) = %v, %v", p, err)
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("ParsePolicy(bogus) should fail")
	}
	if ShedLargest.String() != "largest" || ShedSelf.String() != "self" {
		t.Fatal("Policy.String mismatch")
	}
}

// TestConcurrentHammer drives many goroutines through reserve/release cycles
// under -race: accounting must balance to zero and every killed goroutine
// must observe a structured budget error.
func TestConcurrentHammer(t *testing.T) {
	// Budget 64 KiB; each cycle tries to hold 128 KiB, so every cycle
	// overflows even with no interleaving at all — kills are guaranteed.
	b := NewBroker(1<<16, ShedLargest)
	var wg sync.WaitGroup
	var kills atomic.Int64
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r := b.Begin(fmt.Sprintf("q%d-%d", g, i))
				var err error
				for j := 0; j < 32 && err == nil; j++ {
					err = r.Reserve(4096)
				}
				if err != nil {
					if !errors.Is(err, ErrMemoryBudget) {
						t.Errorf("unexpected error: %v", err)
					}
					kills.Add(1)
				}
				r.Release()
			}
		}(g)
	}
	wg.Wait()
	if got := b.Reserved(); got != 0 {
		t.Fatalf("Reserved = %d after hammer, want 0 (leaked reservation)", got)
	}
	if b.Live() != 0 {
		t.Fatalf("Live = %d after hammer, want 0", b.Live())
	}
	if b.Kills() == 0 {
		t.Fatal("expected kills under pressure")
	}
}

// TestKillReclaimsBytesImmediately: a shed victim's accounted bytes are
// handed back at kill time, not at its eventual cooperative Release — so a
// second overflow in the unwind window never has to take a well-behaved
// neighbor as collateral, and the victim's Release does not double-release.
func TestKillReclaimsBytesImmediately(t *testing.T) {
	b := NewBroker(1000, ShedLargest)
	victim := b.Begin("victim")
	small := b.Begin("small")
	if err := victim.Reserve(800); err != nil {
		t.Fatal(err)
	}
	if err := small.Reserve(400); err != nil {
		t.Fatalf("small.Reserve should survive via shedding, got %v", err)
	}
	// The victim has not released yet, but its 800 B are already gone.
	if got := b.Reserved(); got != 400 {
		t.Fatalf("Reserved = %d immediately after the kill, want 400", got)
	}
	// A straggler charge racing past the killed check is refused and must
	// not distort accounting.
	if err := victim.Reserve(100); err == nil {
		t.Fatal("killed reservation accepted a charge")
	}
	victim.Release()
	if got := b.Reserved(); got != 400 {
		t.Fatalf("Reserved = %d after victim release, want 400 (double release?)", got)
	}
	small.Release()
	if got := b.Reserved(); got != 0 || b.Live() != 0 {
		t.Fatalf("end state reserved=%d live=%d, want 0/0", got, b.Live())
	}
}

// TestReservedNeverExceedsBudget: eight reservers overflow a small budget
// while three pollers read the gauge. A charge is published only once it
// fits (a self-kill never publishes the charge that killed it), so no read
// may see Reserved() outside [0, Budget()], and everything drains on Release.
func TestReservedNeverExceedsBudget(t *testing.T) {
	for _, policy := range []Policy{ShedLargest, ShedSelf} {
		t.Run(policy.String(), func(t *testing.T) {
			b := NewBroker(16<<10, policy)
			stop := make(chan struct{})
			var pollers sync.WaitGroup
			for p := 0; p < 3; p++ {
				pollers.Add(1)
				go func() {
					defer pollers.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if got := b.Reserved(); got < 0 || got > b.Budget() {
							t.Errorf("Reserved() = %d, outside [0, %d]", got, b.Budget())
							return
						}
					}
				}()
			}
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 300; i++ {
						r := b.Begin(fmt.Sprintf("q%d-%d", g, i))
						// Up to 24 KiB against a 16 KiB budget: every cycle
						// that is not shed first overflows on its own.
						for j := 0; j < 24 && r.Reserve(1<<10) == nil; j++ {
						}
						r.Release()
					}
				}(g)
			}
			wg.Wait()
			close(stop)
			pollers.Wait()
			if got := b.Reserved(); got != 0 || b.Live() != 0 {
				t.Fatalf("end state reserved=%d live=%d, want 0/0", got, b.Live())
			}
			if b.Kills() == 0 {
				t.Fatal("expected kills under pressure")
			}
		})
	}
}
