package session

import (
	"container/list"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"

	"gradoop/internal/core"
	"gradoop/internal/epgm"
	"gradoop/internal/govern"
	"gradoop/internal/wire"
)

// CanonicalQuery collapses runs of whitespace outside quoted regions into
// single spaces, so textually equivalent requests share cache entries and
// parameterized queries canonicalize to the same text regardless of binding.
// Quoted regions — 'single'/"double" string literals (backslash escapes
// respected, matching the lexer) and `backquoted` identifiers — are copied
// byte for byte: the canonical text is what the session actually parses and
// executes, so whitespace inside a literal is load-bearing and two queries
// differing only inside a literal must not collide on one cache key.
func CanonicalQuery(q string) string {
	var sb strings.Builder
	sb.Grow(len(q))
	space := false // a pending separator between emitted tokens
	for i := 0; i < len(q); {
		if c := q[i]; c == '\'' || c == '"' || c == '`' {
			j := i + 1
			for j < len(q) && q[j] != c {
				if c != '`' && q[j] == '\\' && j+1 < len(q) {
					j++ // an escaped byte cannot close the literal
				}
				j++
			}
			if j < len(q) {
				j++ // closing quote; unterminated literals keep the tail and fail in the parser
			}
			if space && sb.Len() > 0 {
				sb.WriteByte(' ')
			}
			space = false
			sb.WriteString(q[i:j])
			i = j
			continue
		}
		r, sz := utf8.DecodeRuneInString(q[i:])
		if unicode.IsSpace(r) {
			space = true
		} else {
			if space && sb.Len() > 0 {
				sb.WriteByte(' ')
			}
			space = false
			sb.WriteString(q[i : i+sz])
		}
		i += sz
	}
	return sb.String()
}

// paramsKey encodes a binding deterministically and collision-proof via the
// shared wire codec: names sorted, each length-prefixed and followed by the
// value's binary encoding (type byte + length-prefixed payload). No value —
// including one carrying NUL bytes — can forge a pair boundary, and
// PVInt(1) never collides with PVString("1"): different bindings must never
// share a result-cache key. The cluster protocol ships bindings in the same
// bytes (wire.AppendParams), so cache keys and job specs agree by
// construction.
func paramsKey(params map[string]epgm.PropertyValue) string {
	return string(wire.AppendParams(nil, params))
}

// planKey scopes a canonical query to one graph generation. A compile racing
// with SwapGraph (snapshot taken before the swap, cache insert after the
// purge) then parks its stale-statistics plan under the old generation's
// key, where no post-swap request can find it.
func planKey(generation uint64, canonical string) string {
	return strconv.FormatUint(generation, 10) + "\x00" + canonical
}

// planEntry is one cached compilation. The once gives the cache
// single-flight behaviour: concurrent first requests for the same query
// build the plan exactly once and the rest wait for it.
type planEntry struct {
	once sync.Once
	p    *core.Prepared
	err  error
}

// planCache is an LRU cache of Prepared queries, keyed by planKey —
// generation-scoped canonical query text (semantics, hint and reuse mode are
// session-wide). The cache is additionally purged when the graph — and with
// it the statistics — is swapped.
type planCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used; values are *planItem
}

type planItem struct {
	key   string
	entry *planEntry
}

func newPlanCache(max int) *planCache {
	if max < 1 {
		max = 1
	}
	return &planCache{max: max, entries: map[string]*list.Element{}, order: list.New()}
}

// get returns the entry for key, creating it when absent. Whether a call is
// a hit or a miss is decided by whose once.Do closure runs the build, not by
// who inserted the entry — the creator can lose that race to another caller.
func (c *planCache) get(key string) *planEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*planItem).entry
	}
	entry := &planEntry{}
	c.entries[key] = c.order.PushFront(&planItem{key: key, entry: entry})
	for c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*planItem).key)
	}
	return entry
}

// drop removes a key (used when a build fails, so the error is not pinned).
func (c *planCache) drop(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.Remove(el)
		delete(c.entries, key)
	}
}

// purge empties the cache (graph swap).
func (c *planCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = map[string]*list.Element{}
	c.order.Init()
}

// len reports the number of cached plans.
func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// cachedResult is one query result as the HTTP body carries it: the column
// names, the encoded rows array and the count of a fully bound execution,
// reusable until the graph is swapped. The entry is the only owner of rows:
// hits write them out and nobody writes to them.
type cachedResult struct {
	columns []string
	// rows is the array in the pieces its execution wrote it in, each held at
	// exactly its length.
	rows  [][]byte
	count int64

	key        string
	generation uint64
	bytes      int64
}

// size is what the entry holds, in bytes: its key, its column names and its
// encoded rows.
func (r *cachedResult) size() int64 {
	n := len(r.key) + r.rowsLen()
	for _, c := range r.columns {
		n += len(c)
	}
	return int64(n)
}

// rowsLen is the length of the encoded rows array.
func (r *cachedResult) rowsLen() int {
	n := 0
	for _, p := range r.rows {
		n += len(p)
	}
	return n
}

// resultCache is a byte-budgeted LRU of encoded results. Entries from
// an older graph generation are ignored on lookup and lazily dropped; a
// graph swap purges everything eagerly.
//
// Under memory governance the cache's bytes are weak reservations against
// the session broker: put admits an entry only if its bytes fit the process
// budget right now (TryReserve — a cache insert must never cause a query
// kill), every eviction hands its bytes back, and reclaim empties the whole
// cache when the broker browns out under pressure.
type resultCache struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	entries map[string]*list.Element
	order   *list.List // values are *cachedResult
	// broker is the session's memory broker; nil outside governance. Only
	// TryReserve/ReleaseBytes are ever called here — both are lock-free on
	// the broker side, so the b.mu → c.mu lock order of reclaim (called from
	// the broker's overflow path) can never invert.
	broker *govern.Broker
}

func newResultCache(budget int64) *resultCache {
	return &resultCache{budget: budget, entries: map[string]*list.Element{}, order: list.New()}
}

// get returns the cached result for key at the given graph generation.
func (c *resultCache) get(key string, generation uint64) (*cachedResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	r := el.Value.(*cachedResult)
	if r.generation != generation {
		c.removeLocked(el)
		return nil, false
	}
	c.order.MoveToFront(el)
	return r, true
}

// put inserts a result, evicting least-recently-used entries past the byte
// budget. Results larger than the whole budget are not cached, and neither
// is anything the memory broker cannot admit without pressure: cache memory
// is the first thing sacrificed under load, so it never competes with
// queries for the last bytes of the process budget.
func (c *resultCache) put(r *cachedResult) {
	r.bytes = r.size()
	c.mu.Lock()
	defer c.mu.Unlock()
	if r.bytes > c.budget {
		return
	}
	if el, ok := c.entries[r.key]; ok {
		c.removeLocked(el)
	}
	for c.used+r.bytes > c.budget && c.order.Len() > 0 {
		c.removeLocked(c.order.Back())
	}
	if !c.broker.TryReserve(r.bytes) {
		return
	}
	c.entries[r.key] = c.order.PushFront(r)
	c.used += r.bytes
}

func (c *resultCache) removeLocked(el *list.Element) {
	r := el.Value.(*cachedResult)
	c.order.Remove(el)
	delete(c.entries, r.key)
	c.used -= r.bytes
	c.broker.ReleaseBytes(r.bytes)
}

// purge empties the cache (graph swap), returning every byte to the broker.
func (c *resultCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = map[string]*list.Element{}
	c.order.Init()
	c.broker.ReleaseBytes(c.used)
	c.used = 0
}

// reclaim is the brownout hook the session registers with the broker: under
// reservation pressure the whole cache is dropped and its bytes handed back
// so queries are killed only after cache memory is gone. Runs with the
// broker's overflow lock held — it must (and does) touch only the cache
// lock and the broker's lock-free release path.
func (c *resultCache) reclaim() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	freed := c.used
	c.entries = map[string]*list.Element{}
	c.order.Init()
	c.broker.ReleaseBytes(c.used)
	c.used = 0
	return freed
}

// usage reports the cache's current byte footprint and entry count.
func (c *resultCache) usage() (bytes int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used, c.order.Len()
}
