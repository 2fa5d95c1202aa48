package dataflow

import (
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// ErrEnvMismatch is reported when a combining transformation (Union,
// UnionAll, Join, OuterJoinWith, SemiJoinWith, Probe against a Build,
// BulkIteration with a seed) receives operands that belong to different execution environments. Mixing
// environments would silently corrupt metrics and partitioning, so the engine
// fails the job instead; the error surfaces from Env.Err / core.Execute and
// matches errors.Is(err, ErrEnvMismatch).
var ErrEnvMismatch = errors.New("dataflow: operands belong to different environments")

// mismatch guards binary transformations against operands from different
// environments: it fails both environments with ErrEnvMismatch (wrapped
// with the operation name) and reports whether a mismatch was found. The
// caller returns an empty dataset; the error surfaces through Env.Err.
func mismatch(a, b *Env, op string) bool {
	if a == b {
		return false
	}
	err := fmt.Errorf("%s: %w", op, ErrEnvMismatch)
	a.fail(err)
	b.fail(err)
	return true
}

// JobError is the structured failure of one dataflow job: the stage and
// partition where the first failure happened, the cause (a recovered panic,
// an exhausted retry budget, or a cancellation), and — for panics — the
// goroutine stack at the point of recovery. Error() is a single line; the
// stack is kept out of the message so CLIs can print clean errors while
// programmatic callers still get the full trace.
type JobError struct {
	// Stage is the 1-based transformation number within the job, in the
	// same numbering MetricsSnapshot.Stages counts.
	Stage int64
	// Partition is the worker whose execution failed.
	Partition int
	// Cause is the underlying error (for a recovered panic, the panic
	// value wrapped as an error).
	Cause error
	// Stack is the goroutine stack captured when a panic was recovered;
	// nil for non-panic failures.
	Stack []byte
}

// Error implements error.
func (e *JobError) Error() string {
	return fmt.Sprintf("dataflow: stage %d, partition %d: %v", e.Stage, e.Partition, e.Cause)
}

// Unwrap exposes the cause to errors.Is / errors.As.
func (e *JobError) Unwrap() error { return e.Cause }

// workerFailure is the sentinel panic raised by fault injection: it marks a
// simulated worker crash, which — unlike a genuine UDF panic — is retryable
// by re-executing the lost partition from its materialized stage input.
type workerFailure struct {
	stage     int64
	partition int
}

// Error implements error.
func (w *workerFailure) Error() string {
	return fmt.Sprintf("dataflow: injected worker failure at stage %d, partition %d", w.stage, w.partition)
}

// A Kill is one deterministic fault-injection point: worker Partition dies
// at stage Stage. Times controls how many consecutive execution attempts of
// that (stage, partition) die before one succeeds; 0 means 1. Setting Times
// above the plan's retry budget turns the kill into a permanent failure.
type Kill struct {
	// Stage is the 1-based stage number at which the worker dies, in
	// MetricsSnapshot.Stages numbering. Stages that involve no partitioned
	// execution on the killed worker (e.g. a broadcast collect) never fire.
	Stage int64
	// Partition is the worker to kill.
	Partition int
	// Times is the number of consecutive attempts that die (default 1).
	Times int
}

// FaultPlan describes deterministic worker failures to inject into an
// environment, plus the recovery policy. The engine recovers a killed
// worker Flink-style: the partition's stage input is already materialized
// (lineage), so the stage is simply re-executed on that partition after a
// simulated redeployment backoff. Recovery cost — the backoff plus the
// recomputed work — is charged to the job's metrics, making the overhead
// visible in MetricsSnapshot and the simulated runtime.
//
// The zero value of the policy fields selects the defaults (3 retries,
// 1ms simulated backoff that doubles per attempt).
type FaultPlan struct {
	// MaxRetries bounds the recovery attempts per (stage, partition)
	// before the job fails with a JobError; <= 0 selects 3.
	MaxRetries int
	// Backoff is the simulated delay before a lost partition is
	// re-executed; it doubles on every further attempt. <= 0 selects 1ms.
	Backoff time.Duration
	// Kills is the list of injection points. Multiple entries for the same
	// (stage, partition) accumulate their Times.
	Kills []Kill
}

func (p *FaultPlan) maxRetries() int {
	if p == nil || p.MaxRetries <= 0 {
		return 3
	}
	return p.MaxRetries
}

func (p *FaultPlan) backoff(attempt int) time.Duration {
	b := 1 * time.Millisecond
	if p != nil && p.Backoff > 0 {
		b = p.Backoff
	}
	if attempt > 10 {
		attempt = 10
	}
	return b << attempt
}

// killBudget returns the total configured Times for a (stage, partition).
func (p *FaultPlan) killBudget(stage int64, partition int) int {
	if p == nil {
		return 0
	}
	total := 0
	for _, k := range p.Kills {
		if k.Stage == stage && k.Partition == partition {
			t := k.Times
			if t <= 0 {
				t = 1
			}
			total += t
		}
	}
	return total
}

// RandomKills generates n deterministic kill points spread over stages
// [1, stages] and partitions [0, workers), seeded so that an experiment's
// failure schedule is reproducible. It is the generator behind the
// recovery-overhead experiment (cmd/bench -exp recovery).
func RandomKills(seed int64, n int, stages int64, workers int) []Kill {
	if stages < 1 {
		stages = 1
	}
	if workers < 1 {
		workers = 1
	}
	rng := rand.New(rand.NewSource(seed))
	kills := make([]Kill, 0, n)
	for i := 0; i < n; i++ {
		kills = append(kills, Kill{
			Stage:     1 + rng.Int63n(stages),
			Partition: rng.Intn(workers),
		})
	}
	return kills
}
