// Package govern implements process-wide memory governance for the query
// engine: a Broker that tracks the actual bytes of materialized embeddings
// against a hard budget, per-query Reservations charged cooperatively at the
// engine's materialization points, and the overload machinery the service
// layer degrades through — byte-aware admission headroom, largest-query-first
// shedding, and brownout reclaim of cache memory.
//
// The paper's cost model only *simulates* memory pressure (Env.MemoryPerWorker
// spills excess bytes to imaginary disk); nothing stopped one adversarial
// cartesian blowup from OOMing the whole process. govern is the real
// counterpart: every byte a query materializes is reserved here, and when the
// process budget is exhausted somebody dies — by policy the reserver itself
// (ShedSelf) or the largest query in flight (ShedLargest) — with a structured
// error that unwinds exactly like a contained dataflow panic.
//
// Like internal/obs and the engine's nil tracer, disabled governance is free:
// a nil *Broker hands out nil Reservations and every operation on them is a
// nil check. The enabled fast path is lock-free — one compare-and-swap and one
// atomic add per charge — and only budget overflow takes the broker lock.
//
// The package imports nothing from the engine, so dataflow, session and
// server can all depend on it without cycles.
package govern

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrMemoryBudget is the sentinel every budget kill matches:
// errors.Is(err, govern.ErrMemoryBudget) is true for any *BudgetError,
// whether the query died reserving past the budget or was shed as the
// largest query in flight.
var ErrMemoryBudget = errors.New("govern: memory budget exceeded")

// BudgetError is the structured failure of one governed query: who died,
// how much it held, and the broker state at the kill. It unwraps to
// ErrMemoryBudget.
type BudgetError struct {
	// Label identifies the killed query (the session uses the canonical
	// query text).
	Label string
	// Requested is the size of the denied reservation; 0 when the query was
	// shed by another query's overflow rather than its own charge.
	Requested int64
	// Held is the number of bytes the killed query had reserved.
	Held int64
	// Reserved and Budget are the process-wide reserved bytes and the broker
	// budget at kill time.
	Reserved int64
	Budget   int64
	// Shed reports the kill reason: false when the query's own reservation
	// crossed the budget, true when it was selected as the shedding victim
	// (largest-query-first) for another query's overflow.
	Shed bool
}

// Error implements error.
func (e *BudgetError) Error() string {
	cause := "reservation denied"
	if e.Shed {
		cause = "shed (largest query in flight)"
	}
	return fmt.Sprintf("govern: %s: query held %d B (requested %d B more), process reserved %d B of %d B budget",
		cause, e.Held, e.Requested, e.Reserved, e.Budget)
}

// Unwrap makes every budget kill match ErrMemoryBudget.
func (e *BudgetError) Unwrap() error { return ErrMemoryBudget }

// Policy selects the shedding victim when a reservation would exceed the
// process budget and brownout reclaim could not free enough.
type Policy int

const (
	// ShedLargest kills the largest live reservation — largest-query-first.
	// When the overflowing reserver is not itself the largest, the victim is
	// marked killed (it unwinds at its next cooperative check or context
	// poll) and the reserver proceeds: the victim's release frees at least
	// as much as it held. The default, because it keeps small well-behaved
	// queries alive through a blowup.
	ShedLargest Policy = iota
	// ShedSelf kills the query whose reservation crossed the budget,
	// regardless of size — strict first-to-overflow-dies semantics.
	ShedSelf
)

// String names the policy (the -shed-policy flag values).
func (p Policy) String() string {
	switch p {
	case ShedLargest:
		return "largest"
	case ShedSelf:
		return "self"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy parses a -shed-policy flag value.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "largest":
		return ShedLargest, nil
	case "self":
		return ShedSelf, nil
	default:
		return 0, fmt.Errorf("unknown shed policy %q (want largest or self)", s)
	}
}

// Broker is the process-wide memory account. Queries reserve through
// per-query Reservations (Begin); caches reserve weakly through TryReserve —
// a cache reservation never kills a query, it simply fails, and registered
// reclaimers hand cache bytes back under pressure (brownout).
type Broker struct {
	budget int64
	policy Policy

	reserved  atomic.Int64
	kills     atomic.Int64
	sheds     atomic.Int64
	brownouts atomic.Int64

	// mu guards the live-reservation registry, victim selection and
	// reclaim — the overflow slow path only.
	mu         sync.Mutex
	nextSeq    uint64
	live       map[*Reservation]struct{}
	reclaimers []func() int64

	// notifyMu/notifyCh implement the headroom broadcast admission waits on:
	// the channel is closed and replaced whenever reserved bytes shrink.
	notifyMu sync.Mutex
	notifyCh chan struct{}
}

// NewBroker creates a broker enforcing the given budget (bytes) under the
// given shedding policy. A budget <= 0 returns nil — the disabled broker on
// which every operation is a free no-op — so callers can pass a config value
// straight through.
func NewBroker(budget int64, policy Policy) *Broker {
	if budget <= 0 {
		return nil
	}
	return &Broker{
		budget:   budget,
		policy:   policy,
		live:     map[*Reservation]struct{}{},
		notifyCh: make(chan struct{}),
	}
}

// Budget returns the configured budget in bytes (0 on a nil broker).
func (b *Broker) Budget() int64 {
	if b == nil {
		return 0
	}
	return b.budget
}

// Reserved returns the process-wide reserved bytes (0 on a nil broker).
func (b *Broker) Reserved() int64 {
	if b == nil {
		return 0
	}
	return b.reserved.Load()
}

// Kills counts budget kills: queries that died with a *BudgetError, both
// self-overflow and shed victims.
func (b *Broker) Kills() int64 {
	if b == nil {
		return 0
	}
	return b.kills.Load()
}

// Sheds counts the subset of kills where the victim was not the reserver —
// largest-query-first load shedding.
func (b *Broker) Sheds() int64 {
	if b == nil {
		return 0
	}
	return b.sheds.Load()
}

// Brownouts counts reclaim sweeps that actually freed cache bytes back to
// the broker under pressure.
func (b *Broker) Brownouts() int64 {
	if b == nil {
		return 0
	}
	return b.brownouts.Load()
}

// Live reports the number of live query reservations.
func (b *Broker) Live() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.live)
}

// AddReclaimer registers a brownout callback: under pressure the broker
// invokes it (overflow slow path, broker lock held) and it returns the bytes
// it handed back — the session registers the result cache's purge here. The
// callback must release through ReleaseBytes/TryReserve only; calling
// Begin/Release from a reclaimer deadlocks.
func (b *Broker) AddReclaimer(f func() int64) {
	if b == nil || f == nil {
		return
	}
	b.mu.Lock()
	b.reclaimers = append(b.reclaimers, f)
	b.mu.Unlock()
}

// TryReserve reserves n bytes for a cache if — and only if — they fit under
// the budget right now. It never triggers reclaim or shedding: cache memory
// is the first thing sacrificed under pressure, so it must never cause a
// query kill to make room for itself. Nil-safe (a nil broker always admits).
func (b *Broker) TryReserve(n int64) bool {
	if b == nil || n <= 0 {
		return b == nil || n == 0
	}
	return b.admit(n)
}

// admit publishes n more reserved bytes if they fit under the budget, and
// nothing otherwise: it is the only way bytes are added, which is what keeps
// every read of Reserved() within [0, Budget()].
func (b *Broker) admit(n int64) bool {
	for {
		cur := b.reserved.Load()
		if cur+n > b.budget {
			return false
		}
		if b.reserved.CompareAndSwap(cur, cur+n) {
			return true
		}
	}
}

// ReleaseBytes returns n bytes reserved via TryReserve to the broker and
// wakes headroom waiters.
func (b *Broker) ReleaseBytes(n int64) {
	if b == nil || n <= 0 {
		return
	}
	b.reserved.Add(-n)
	b.notifyHeadroom()
}

// HasHeadroom reports whether new work should be admitted: reserved bytes
// are under the budget. A nil broker always has headroom.
func (b *Broker) HasHeadroom() bool {
	return b == nil || b.reserved.Load() < b.budget
}

// AwaitHeadroom blocks until the broker has admission headroom or ctx is
// done, returning ctx.Err() in the latter case. The ctx parameter is an
// interface subset of context.Context so the package stays dependency-free.
func (b *Broker) AwaitHeadroom(ctx interface {
	Done() <-chan struct{}
	Err() error
}) error {
	if b == nil {
		return nil
	}
	for {
		if b.HasHeadroom() {
			return nil
		}
		ch := b.headroomCh()
		// Recheck after taking the channel: a release between the check and
		// the take already closed the previous channel, not this one.
		if b.HasHeadroom() {
			return nil
		}
		if ctx == nil {
			<-ch
			continue
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// headroomCh returns the current broadcast channel.
func (b *Broker) headroomCh() chan struct{} {
	b.notifyMu.Lock()
	defer b.notifyMu.Unlock()
	return b.notifyCh
}

// notifyHeadroom wakes every headroom waiter by closing and replacing the
// broadcast channel.
func (b *Broker) notifyHeadroom() {
	b.notifyMu.Lock()
	close(b.notifyCh)
	b.notifyCh = make(chan struct{})
	b.notifyMu.Unlock()
}

// Reservation is one query's account against the broker. The fast path of
// Reserve is lock-free (an atomic kill check, a compare-and-swap on the
// process total and an atomic add on the query's own); only a charge that
// does not fit takes the broker lock. A nil *Reservation — handed out by
// a nil broker — makes every method a free no-op, mirroring the engine's
// nil-tracer/nil-observer pattern.
type Reservation struct {
	b     *Broker
	label string
	seq   uint64

	used   atomic.Int64
	killed atomic.Bool

	// mu guards the kill error and callback; written once, on kill.
	mu      sync.Mutex
	killErr *BudgetError
	onKill  func()
}

// Begin opens a reservation for one query. Nil-safe: a nil broker returns a
// nil reservation. The label is carried into kill errors (the session passes
// the canonical query text).
func (b *Broker) Begin(label string) *Reservation {
	if b == nil {
		return nil
	}
	r := &Reservation{b: b, label: label}
	b.mu.Lock()
	b.nextSeq++
	r.seq = b.nextSeq
	b.live[r] = struct{}{}
	b.mu.Unlock()
	return r
}

// Label returns the reservation's label ("" on nil).
func (r *Reservation) Label() string {
	if r == nil {
		return ""
	}
	return r.label
}

// Used returns the bytes this reservation currently holds (0 on nil).
func (r *Reservation) Used() int64 {
	if r == nil {
		return 0
	}
	return r.used.Load()
}

// OnKill registers a callback invoked exactly once when the reservation is
// killed — the session registers the query context's cancel func, so a shed
// victim unwinds at its next cancellation poll even between materialization
// points. If the reservation is already killed, f runs immediately.
func (r *Reservation) OnKill(f func()) {
	if r == nil || f == nil {
		return
	}
	r.mu.Lock()
	killed := r.killErr != nil
	if !killed {
		r.onKill = f
	}
	r.mu.Unlock()
	if killed {
		f()
	}
}

// KillErr returns the structured budget error if the reservation has been
// killed, nil otherwise. Nil-safe.
func (r *Reservation) KillErr() error {
	if r == nil || !r.killed.Load() {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.killErr == nil {
		return nil
	}
	return r.killErr
}

// Reserve charges n freshly materialized bytes to the query. It fails with
// the reservation's *BudgetError when the query has been killed — by its own
// overflow now, or earlier as a shedding victim — making every
// materialization point a cooperative kill check. Nil-safe no-op.
func (r *Reservation) Reserve(n int64) error {
	if r == nil || n < 0 {
		return nil
	}
	if r.killed.Load() {
		return r.KillErr()
	}
	if n == 0 {
		return nil
	}
	// Process total first, the query's own second, and the reverse on the
	// way out (Release, killLocked): the total never reads below what the
	// reservations hold, so giving bytes back cannot take it under zero.
	if r.b.admit(n) {
		r.used.Add(n)
		return nil
	}
	return r.b.overflow(r, n)
}

// Release returns every byte the reservation holds and removes it from the
// shedding candidates, waking admission waiters. Idempotent and nil-safe;
// the session defers it on every Execute exit path, which is what keeps the
// reserved-bytes gauge at zero between requests.
func (r *Reservation) Release() {
	if r == nil {
		return
	}
	r.b.mu.Lock()
	_, live := r.b.live[r]
	delete(r.b.live, r)
	r.b.mu.Unlock()
	if !live {
		return
	}
	if n := r.used.Swap(0); n > 0 {
		r.b.reserved.Add(-n)
	}
	r.b.notifyHeadroom()
}

// overflow is the slow path of Reserve: n does not fit under the budget.
// Under the broker lock it makes room first — a retry (a concurrent release
// may have fixed it), then brownout reclaim, then kills per policy — and
// publishes the charge only once it fits. It returns nil when the reserver
// may proceed and the reserver's own *BudgetError when it must die, in which
// case the overflowing charge was never published.
func (b *Broker) overflow(r *Reservation, n int64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if r.killed.Load() {
		// Shed by another query's overflow while waiting for the lock.
		return r.KillErr()
	}
	fits := b.admit(n)
	// Brownout: hand cache bytes back before killing anything.
	for i := 0; !fits && i < len(b.reclaimers); i++ {
		if freed := b.reclaimers[i](); freed > 0 {
			b.brownouts.Add(1)
		}
		fits = b.admit(n)
	}
	for !fits {
		victim := r
		if b.policy == ShedLargest {
			victim = b.largestLocked(r, n)
		}
		if victim == r {
			return b.killLocked(r, r, n)
		}
		// Largest-query-first: the kill hands the victim's bytes back at
		// once, and the reserver proceeds as soon as its charge fits.
		b.killLocked(victim, r, n)
		fits = b.admit(n)
	}
	r.used.Add(n)
	return nil
}

// largestLocked picks the shedding victim for reserver's overflowing charge
// of n bytes: the live, not-yet-killed reservation holding the most bytes,
// the reserver counted with the charge it is asking for, ties broken by age
// (older first) so selection is deterministic. With no other candidate the
// reserver itself dies.
func (b *Broker) largestLocked(reserver *Reservation, n int64) *Reservation {
	best, bestUsed := reserver, reserver.used.Load()+n
	for r := range b.live {
		if r == reserver || r.killed.Load() {
			continue
		}
		u := r.used.Load()
		if u > bestUsed || (u == bestUsed && r.seq < best.seq) {
			best, bestUsed = r, u
		}
	}
	return best
}

// killLocked marks victim killed with a structured error and fires its
// OnKill callback. reserver/n describe the overflowing charge for the error
// message. Idempotent per victim.
func (b *Broker) killLocked(victim, reserver *Reservation, n int64) *BudgetError {
	victim.mu.Lock()
	if victim.killErr != nil {
		err := victim.killErr
		victim.mu.Unlock()
		return err
	}
	err := &BudgetError{
		Label:    victim.label,
		Held:     victim.used.Load(),
		Reserved: b.reserved.Load(),
		Budget:   b.budget,
		Shed:     victim != reserver,
	}
	if victim == reserver {
		err.Requested = n
	}
	victim.killErr = err
	onKill := victim.onKill
	victim.onKill = nil
	victim.mu.Unlock()
	victim.killed.Store(true)
	// Reclaim the victim's accounted bytes now, not at its eventual
	// Release: the kill's whole point is to free budget immediately, and
	// waiting for the victim's cooperative unwind would leave a window in
	// which a second overflow must pick its largest *un-killed* — i.e.
	// well-behaved — neighbor as collateral. Charges that raced past the
	// killed check land after this swap and are returned by the victim's
	// Release, which subtracts exactly what it swaps out.
	if freed := victim.used.Swap(0); freed > 0 {
		b.reserved.Add(-freed)
		b.notifyHeadroom()
	}
	b.kills.Add(1)
	if err.Shed {
		b.sheds.Add(1)
	}
	if onKill != nil {
		onKill()
	}
	return err
}
