package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"gradoop/internal/session"
)

// blowupQuery is the unconstrained cartesian product: |V|^5 embeddings over
// the 3-vertex test graph, enough to overflow the tiny budgets below.
const blowupQuery = `MATCH (a),(b),(c),(d),(e) RETURN a, b, c, d, e`

// TestMemoryBudgetMapsTo503: a budget kill surfaces over HTTP as 503 with
// Retry-After — the client did nothing wrong and may retry once the process
// has headroom — and the structured body carries kind and trace ID.
func TestMemoryBudgetMapsTo503(t *testing.T) {
	ts := newTestServer(t, session.Options{MemoryBudget: 2 << 10})
	resp, out := postJSON(t, ts.URL+"/query", map[string]any{"query": blowupQuery})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status=%d want 503 (body %v)", resp.StatusCode, out)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After=%q want 1", got)
	}
	if out["kind"] != "memory-budget" {
		t.Errorf("kind=%v want memory-budget", out["kind"])
	}
	if out["error"] == "" {
		t.Error("missing error message")
	}
	trace := resp.Header.Get("X-Trace-Id")
	if trace == "" || out["traceId"] != trace {
		t.Errorf("traceId=%v want header value %q", out["traceId"], trace)
	}
}

// TestQueueFullCarriesRetryAfter: the pre-existing 429 rejection now tells
// the client when to come back, and is distinguishable from the 503 both by
// status and by kind.
func TestQueueFullCarriesRetryAfter(t *testing.T) {
	ts := newTestServer(t, session.Options{MaxConcurrent: 1, MaxQueued: -1})
	const n = 16
	var wg sync.WaitGroup
	var mu sync.Mutex
	var saw429 bool
	seen := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return saw429
	}
	post := func(burst int) {
		defer wg.Done()
		b, _ := json.Marshal(map[string]any{
			"query": fmt.Sprintf("MATCH (a:Person)-[:knows]->(b)-[:knows]->(c) WHERE a.name <> 'burst %d' RETURN a.name", burst)})
		resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		var out map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&out)
		if resp.StatusCode != http.StatusTooManyRequests {
			return
		}
		mu.Lock()
		saw429 = true
		mu.Unlock()
		if got := resp.Header.Get("Retry-After"); got != "1" {
			t.Errorf("429 Retry-After=%q want 1", got)
		}
		if out["kind"] != "rejected" {
			t.Errorf("429 kind=%v want rejected", out["kind"])
		}
		if out["traceId"] != resp.Header.Get("X-Trace-Id") {
			t.Errorf("429 traceId=%v want %q", out["traceId"], resp.Header.Get("X-Trace-Id"))
		}
	}
	// A burst overflows the single slot only if two of its requests meet
	// there before its first answer fills the result cache, which a busy
	// machine can keep from happening: up to five bursts, each of a query of
	// its own.
	for burst := 0; burst < 5 && !seen(); burst++ {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go post(burst)
		}
		wg.Wait()
	}
	if !saw429 {
		t.Skip("burst never overflowed the single slot; nothing to assert")
	}
}

// TestGovernedServerStaysCorrect: with an ample budget the HTTP surface is
// unchanged — same rows, status 200, no Retry-After.
func TestGovernedServerStaysCorrect(t *testing.T) {
	ts := newTestServer(t, session.Options{MemoryBudget: 1 << 30})
	resp, out := postJSON(t, ts.URL+"/query",
		map[string]any{"query": "MATCH (a:Person)-[:knows]->(b) RETURN a.name, b.name"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status=%d body=%v", resp.StatusCode, out)
	}
	if out["count"].(float64) != 3 {
		t.Fatalf("count=%v want 3", out["count"])
	}
	if got := resp.Header.Get("Retry-After"); got != "" {
		t.Errorf("success response carries Retry-After=%q", got)
	}
}
