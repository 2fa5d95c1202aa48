package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gradoop/internal/baseline"
	"gradoop/internal/benchkit"
	"gradoop/internal/cypher"
	"gradoop/internal/dataflow"
	"gradoop/internal/epgm"
	"gradoop/internal/govern"
	"gradoop/internal/ldbc"
	"gradoop/internal/leakcheck"
	"gradoop/internal/obs"
	"gradoop/internal/operators"
	"gradoop/internal/session"
)

// chaosBlowups are the adversarial queries of the overload harness, issued
// in turn: an unconstrained four-way cartesian product over every Person,
// the same kind of product written as an OPTIONAL MATCH that shares no
// variable with its MATCH - an outer join with one key group, 2 500 pairs of
// persons by 300 comments - and a variable-length path of up to eight knows
// hops from every Person, which the session walks in the pinned store, where
// one input row alone leads to more paths than the budget holds. Their
// materialized embeddings exceed any budget the harness configures by orders
// of magnitude. They are syntactically valid, planner-approved work — exactly
// the traffic an admission gate cannot reject up front and only a memory
// governor can stop.
var chaosBlowups = []string{
	`MATCH (a:Person),(b:Person),(c:Person),(d:Person) RETURN a, b, c, d`,
	`MATCH (a:Person),(b:Person) OPTIONAL MATCH (m:Comment) RETURN a, b, m`,
	`MATCH (a:Person)-[:knows*1..8]->(b:Person) RETURN a, b`,
}

// The overload run CI executes under -race and a tight GOMEMLIMIT: small
// graph, 2 MiB budget, every fourth request a blowup. The budget is sized
// against measured footprints: one operational query peaks at ~125 KiB of
// charged embeddings, so even with every slot held by well-behaved traffic
// (~500 KiB) a blowup must reserve the remaining ~1.5 MiB before the budget
// overflows — at the overflow the largest reservation is always a blowup,
// and largest-first shedding never takes collateral. The four-way cartesian
// charges tens of megabytes if left alone, far past the budget at any seed.
const (
	// chaosSeed drives both the LDBC generator and the request schedule:
	// two runs issue the same sequence of queries.
	chaosSeed           = 2017
	chaosSF             = 0.05
	chaosBlowupFraction = 0.25
	// chaosConcurrency is the number of client goroutines draining the
	// schedule, and of job slots in the session.
	chaosConcurrency = 4
	chaosBudget      = 2 << 20
	chaosWorkers     = 2
)

// chaosReport aggregates one run's per-request classifications and the
// broker's end state. Check() is the pass/fail gate.
type chaosReport struct {
	Blowups, WellBehaved int

	// BlowupsKilled counts blowups that came back 503/memory-budget with a
	// Retry-After header; BlowupEscapes counts blowups that finished (the
	// governor failed) or failed any other way.
	BlowupsKilled int
	BlowupEscapes int

	// WellBehavedOK counts well-behaved requests answered 200 with the
	// oracle-verified row count; WellBehavedKilled counts collateral
	// memory-budget kills (must be zero under largest-first shedding);
	// WrongResults counts 200s whose count disagreed with the oracle.
	WellBehavedOK     int
	WellBehavedKilled int
	WrongResults      int
	OtherFailures     int

	// Broker end state: counters plus the reservation gauge after the run,
	// which must drain to zero.
	Kills, Sheds, Brownouts int64
	ReservedAfter           int64
	LiveAfter               int

	Wall time.Duration
}

// Check returns the first violated invariant, or nil for a clean run.
func (rep chaosReport) Check() error {
	switch {
	case rep.Blowups == 0 || rep.WellBehaved == 0:
		return fmt.Errorf("degenerate schedule: %d blowups, %d well-behaved", rep.Blowups, rep.WellBehaved)
	case rep.BlowupsKilled != rep.Blowups:
		return fmt.Errorf("governor missed blowups: %d/%d killed (%d escaped)",
			rep.BlowupsKilled, rep.Blowups, rep.BlowupEscapes)
	case rep.WellBehavedKilled != 0:
		return fmt.Errorf("%d well-behaved queries killed for memory (collateral damage)", rep.WellBehavedKilled)
	case rep.WrongResults != 0:
		return fmt.Errorf("%d well-behaved queries returned non-oracle counts under pressure", rep.WrongResults)
	case rep.OtherFailures != 0:
		return fmt.Errorf("%d requests failed outside the governed taxonomy", rep.OtherFailures)
	case rep.WellBehavedOK != rep.WellBehaved:
		return fmt.Errorf("well-behaved accounting leak: %d ok of %d", rep.WellBehavedOK, rep.WellBehaved)
	case rep.ReservedAfter != 0 || rep.LiveAfter != 0:
		return fmt.Errorf("broker did not drain: %d B across %d live reservations", rep.ReservedAfter, rep.LiveAfter)
	}
	return nil
}

// runChaos executes the seeded overload schedule of the given length against
// a fully governed session served over HTTP and classifies every response:
// blowups must die with 503 + Retry-After and kind "memory-budget",
// well-behaved queries must return their oracle-verified counts, and
// afterwards every broker reservation must be released and, once t ends,
// every goroutine gone (leakcheck).
func runChaos(t *testing.T, requests int) chaosReport {
	t.Helper()
	leakcheck.Check(t)
	var rep chaosReport

	// Dataset plus ground truth: the well-behaved traffic is the paper's
	// operational query Q1 over a common, a medium and a rare first name. The
	// oracle counts are computed against the brute-force reference matcher
	// before any pressure exists, so a wrong count under load is attributable
	// to the governor, not to the oracle.
	data := ldbc.Generate(dataflow.NewEnv(dataflow.DefaultConfig(chaosWorkers)),
		ldbc.Config{ScaleFactor: chaosSF, Seed: chaosSeed})
	ref := baseline.NewReference(data.Graph)
	morph := operators.Morphism{Vertex: operators.Homomorphism, Edge: operators.Isomorphism}
	common, medium, rare := data.FirstNamesBySelectivity()
	names := []string{common, medium, rare}
	oracle := make(map[string]int64, len(names))
	for _, name := range names {
		ast, err := cypher.Parse(benchkit.Q1.Text())
		if err != nil {
			t.Fatal(err)
		}
		params := map[string]epgm.PropertyValue{"firstName": epgm.PVString(name)}
		qg, err := cypher.BuildQueryGraph(ast, params)
		if err != nil {
			t.Fatal(err)
		}
		oracle[name] = int64(ref.Count(qg, morph))
	}

	registry := obs.NewRegistry()
	sess := session.New(data.Graph, session.Options{
		Workers:       chaosWorkers,
		Vertex:        morph.Vertex,
		Edge:          morph.Edge,
		MaxConcurrent: chaosConcurrency,
		MaxQueued:     2 * requests, // never 429: every scheduled query must run
		MemoryBudget:  chaosBudget,
		ShedPolicy:    govern.ShedLargest,
		Metrics:       registry,
	})
	ts := httptest.NewServer(New(sess, Config{Metrics: registry}))

	// The deterministic schedule: kind and parameter of every request are
	// fixed by the seed before any goroutine starts.
	type chaosReq struct {
		blowup string // the query, for a blowup
		name   string // Q1's parameter, for a well-behaved request
	}
	rng := rand.New(rand.NewSource(chaosSeed))
	schedule := make([]chaosReq, requests)
	for i := range schedule {
		if rng.Float64() < chaosBlowupFraction {
			schedule[i] = chaosReq{blowup: chaosBlowups[rep.Blowups%len(chaosBlowups)]}
			rep.Blowups++
		} else {
			schedule[i] = chaosReq{name: names[rng.Intn(len(names))]}
			rep.WellBehaved++
		}
	}

	var next atomic.Int64
	var mu sync.Mutex // guards the classification counters below
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < chaosConcurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(schedule) {
					return
				}
				req := schedule[i]
				body := map[string]any{"query": req.blowup}
				if req.blowup == "" {
					body = map[string]any{"query": benchkit.Q1.Text(), "params": map[string]any{"firstName": req.name}}
				}
				status, header, out := postJSONNoFatal(t, ts.URL+"/query", body)
				mu.Lock()
				classifyChaos(&rep, req.blowup != "", oracle[req.name], status, header.Get("Retry-After"), out)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	rep.Wall = time.Since(start)

	m := sess.Metrics()
	rep.Kills, rep.Sheds, rep.Brownouts = m.MemKills, m.MemSheds, m.MemBrownouts

	ts.Close()
	// Settle: the HTTP server's handler goroutines and any kill unwinding
	// finish asynchronously; poll briefly before declaring a leak. The
	// result cache may legitimately hold broker bytes (weak reservations,
	// reclaimable at any time) — the drain assertion is on everything
	// beyond them: leaked per-query reservations.
	deadline := time.Now().Add(2 * time.Second)
	for {
		rep.ReservedAfter = sess.Broker().Reserved() - sess.Metrics().ResultBytes
		rep.LiveAfter = sess.Broker().Live()
		if (rep.ReservedAfter == 0 && rep.LiveAfter == 0) || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	return rep
}

// classifyChaos folds one response into the report under the harness's
// contract: a blowup is only "killed" if the full structured surface is
// present (503, Retry-After, kind memory-budget); a well-behaved query only
// "ok" if its count matches the oracle. A request that never got an answer
// arrives as status 0 and counts against the run either way.
func classifyChaos(rep *chaosReport, blowup bool, want int64, status int, retryAfter string, out map[string]any) {
	kind, _ := out["kind"].(string)
	if blowup {
		if status == http.StatusServiceUnavailable && kind == "memory-budget" && retryAfter != "" {
			rep.BlowupsKilled++
		} else {
			rep.BlowupEscapes++
		}
		return
	}
	switch {
	case status == http.StatusOK:
		if count, ok := out["count"].(float64); ok && int64(count) == want {
			rep.WellBehavedOK++
		} else {
			rep.WrongResults++
		}
	case kind == "memory-budget":
		rep.WellBehavedKilled++
	default:
		rep.OtherFailures++
	}
}

// TestChaosSmoke is the CI overload gate: one seeded schedule of cartesian
// blowups interleaved with oracle-checked operational queries against a
// governed, HTTP-served session. Every invariant lives in
// chaosReport.Check: all blowups die with the full structured surface
// (503, Retry-After, kind memory-budget), zero well-behaved queries are
// killed or corrupted, the broker drains, no goroutines leak. Run under
// -race and a tight GOMEMLIMIT by the chaos-smoke make target.
func TestChaosSmoke(t *testing.T) {
	requests := 48
	if testing.Short() {
		requests = 16
	}
	rep := runChaos(t, requests)
	t.Logf("chaos: %d requests in %s — blowups %d/%d killed, well-behaved %d/%d ok, kills=%d sheds=%d brownouts=%d",
		requests, rep.Wall, rep.BlowupsKilled, rep.Blowups,
		rep.WellBehavedOK, rep.WellBehaved, rep.Kills, rep.Sheds, rep.Brownouts)
	if err := rep.Check(); err != nil {
		t.Fatalf("chaos invariant violated: %v\nreport: %+v", err, rep)
	}
}

// TestChaosDeterministicSchedule: the seed must produce the same
// blowup/well-behaved split on every run (the schedule is fixed before any
// goroutine starts), which is what makes a failing interleaving repeatable.
func TestChaosDeterministicSchedule(t *testing.T) {
	a := runChaos(t, 12)
	if err := a.Check(); err != nil {
		t.Fatal(err)
	}
	b := runChaos(t, 12)
	if a.Blowups != b.Blowups || a.WellBehaved != b.WellBehaved {
		t.Fatalf("schedule not deterministic: %d/%d vs %d/%d",
			a.Blowups, a.WellBehaved, b.Blowups, b.WellBehaved)
	}
}
