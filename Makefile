# Build/verify entry points. `make check` is the CI gate: vet, the project's
# own static-analysis suite (cypherlint), plus the full test suite under the
# race detector — load-bearing, because runStage spawns one goroutine per
# partition and the fault-tolerance layer (panic containment, cancellation
# polling, retry loops) is concurrent by design.

GO ?= go

# Third-party linters, pinned. They are optional locally (this repo builds
# offline; the tools are skipped when not installed) and mandatory in CI,
# where `make lint-tools` installs exactly these versions.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: all build test vet lint lint-tools fuzz-smoke race chaos-smoke alloc-guard alloc-table inline-guard figures-check figures-update cluster-smoke bench-smoke check bench clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint runs cypherlint (the in-tree go/analysis suite enforcing the engine's
# concurrency, telemetry and wire invariants; see internal/lint) over the
# module, both standalone and as a vet tool so test files are covered too,
# then staticcheck and govulncheck when they are on PATH. The standalone pass
# prints per-analyzer wall time and finding counts (-stats) so a slow or
# noisy analyzer is visible in every CI log. The linter is built once, into
# bin/cypherlint, for both passes and for CI's summary step.
lint:
	$(GO) build -o bin/cypherlint ./cmd/cypherlint
	bin/cypherlint -stats ./...
	$(GO) vet -vettool=bin/cypherlint ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (make lint-tools)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (make lint-tools)"; \
	fi

# lint-tools installs the pinned third-party linters (needs network access).
lint-tools:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

# fuzz-smoke gives each native fuzz target a short budget — enough to catch
# regressions in the properties (parser never panics, canonicalization is
# idempotent and literal-preserving, a shuffle bucket or a telemetry bundle
# off the socket decodes or is an error, a row off the socket is an error or
# views that end inside it - under -race, so checkptr holds the row's
# unsafe.Slice views to their allocation) without open-ended fuzzing.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/session -run '^FuzzCanonicalQuery$$' -fuzz '^FuzzCanonicalQuery$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/cypher -run '^FuzzParse$$' -fuzz '^FuzzParse$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/gdl -run '^FuzzParse$$' -fuzz '^FuzzParse$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wire -run '^FuzzParamsRoundTrip$$' -fuzz '^FuzzParamsRoundTrip$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/lint/analysis -run '^FuzzCFGBuild$$' -fuzz '^FuzzCFGBuild$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core -run '^FuzzAppendJSONValue$$' -fuzz '^FuzzAppendJSONValue$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/operators -run '^FuzzDecodeBucket$$' -fuzz '^FuzzDecodeBucket$$' -fuzztime=$(FUZZTIME)
	$(GO) test -race ./internal/embedding -run '^FuzzDecodeWire$$' -fuzz '^FuzzDecodeWire$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/cluster -run '^FuzzDecodeTelemetryBundle$$' -fuzz '^FuzzDecodeTelemetryBundle$$' -fuzztime=$(FUZZTIME)

race:
	$(GO) test -race ./...

# chaos-smoke runs the seeded overload harness (internal/server
# chaos_test.go) under the race detector with a deliberately tight Go heap
# limit: blowup queries interleaved with oracle-checked traffic against a
# governed, HTTP-served session. The harness itself asserts the contract —
# every blowup dies with a structured 503 + Retry-After, zero well-behaved
# queries are killed or corrupted, the broker's reservations drain to zero
# and no goroutines leak.
chaos-smoke:
	GOMEMLIMIT=256MiB $(GO) test ./internal/server -run '^TestChaos' -race -count=1 -v

# alloc-guard pins the telemetry hot paths at zero allocations per
# recorded event: both the disabled (nil-registry) and the warm enabled
# paths must report 0 allocs/op, or the zero-cost guarantee of DESIGN.md
# decision 13 is broken. It also pins the embedding hot path (DESIGN.md
# decision 19) at hundredths of an allocation per row: leaf scan, merge,
# shuffle, join probe, outer join (decision 28: half its probe rows come out
# NULL-padded, from the same slab), semi join (an uncorrelated exists(): one
# key group, left at each row's first match), one expand hop and a six-hop expand loop
# (decision 23: that kernel itself fails if a further hop allocates the triple
# side again) on embedding-shaped rows, and the output path (decisions 20 and 31): the JSON row
# writer allocates nothing per row, a result-cache hit served over HTTP
# costs a fixed handful, and what serving 20 000 executed rows over HTTP
# allocates beyond executing them is hundredths of an object and under a byte
# a row, because the body is never built (312 B a row when it was grown by
# append; the bound is one chunk over those rows); and the wire (decision 21): bucketing, framing and
# reading back a shuffle's rows costs a fixed handful per bucket, because the
# rows are views of the frame; and the stage primitive (decision 24): a
# FlatMapWith and a JoinWith stage over four partitions cost no heap object
# per partition attempt for the attempt's handle (21 and 33 objects a stage
# since PR 22 allocated the eight-row outputs once; 33 and 46 before; the
# same 33 since the probe loop also serves OuterJoinWith and SemiJoinWith,
# decision 28) and, on a warm lane (decision 32), none for a one-shot join's
# table or an exchange's route (21 and 21: the table's three arrays and the
# route's two per partition are the lane's); the same benchmark holds the
# exchange (decision 16) on both deployments, a shuffle in process and one
# across two processes of the test cluster, so an edit of the one function
# cannot spend objects on either unseen;
# and the output partitions (decision 25): the leaf scan, the join probe and
# the outer join are also held to their heap bytes per output row, because a partition grown
# by append costs the same handful of objects and several times the bytes;
# and the bind (decision 27): a fresh environment, the pinned store bound to it
# and a one- and a two-label scan cost a fixed 24 objects and 1.5 KiB, because a
# dataset is cut for the labels a query reads, not for every label of the graph,
# and a label's dataset is a sub-slice (34 objects and 34 KiB while a two-label
# scan concatenated its labels); and the join that probes a leaf where it lies
# (decision 30): a count, a broadcast and a probe of 20 000 edges by 64 rows
# cost hundredths of an object and two bytes per scanned edge, because a row is
# built for an edge that joins and for no other.
alloc-guard:
	$(GO) test ./internal/obs -run '^$$' -bench 'Registry' -benchmem | awk ' \
		/^Benchmark/ { print; if ($$(NF-1)+0 != 0) bad = 1 } \
		END { if (bad) { print "alloc-guard: telemetry hot path allocates"; exit 1 } }'
	$(GO) test ./internal/qstore -run '^$$' -bench 'BenchmarkAppend' -benchmem | awk ' \
		/^BenchmarkAppendDisabled/ { print; if ($$(NF-1)+0 != 0) bad = 1 } \
		/^BenchmarkAppendEnabled/  { print; if ($$(NF-1)+0 > 16) bad = 1 } \
		END { if (bad) { print "alloc-guard: qstore append path over budget (disabled must be 0 allocs/op, enabled <= 16)"; exit 1 } }'
	$(GO) test ./internal/dataflow -run '^$$' -bench 'BenchmarkTransportNil' -benchmem | awk ' \
		/^Benchmark/ { print; if ($$(NF-1)+0 != 0) bad = 1 } \
		END { if (bad) { print "alloc-guard: nil-transport collectives allocate (single-process hot path must be free)"; exit 1 } }'
	$(GO) test ./internal/dataflow -run '^$$' -bench 'BenchmarkStageAttempt' -benchmem | awk ' \
		/^BenchmarkStageAttempt\/FlatMapWith/ { print; seen++; if ($$(NF-1)+0 > 23) bad = 1 } \
		/^BenchmarkStageAttempt\/JoinWith/    { print; seen++; if ($$(NF-1)+0 > 23) bad = 1 } \
		/^BenchmarkStageAttempt\/Shuffle-/     { print; seen++; if ($$(NF-1)+0 > 26) bad = 1 } \
		/^BenchmarkStageAttempt\/Shuffle2proc/ { print; seen++; if ($$(NF-1)+0 > 69) bad = 1 } \
		END { if (bad || seen != 4) { print "alloc-guard: a stage on a warm lane allocates more objects than its output allocated once and the stage\x27s own few (FlatMapWith <= 23 allocs/op, JoinWith <= 23: 21 and 21 measured + 10%, 33 for the join while its table\x27s three arrays were allocated per attempt, 33 and 46 with append-grown outputs; the attempt handle must cost no object per attempt, and an inner join none for the epilogue of the outer join), or the one exchange more than its windows and buckets (Shuffle, in process, <= 26; Shuffle2proc, two processes of the test cluster owning two partitions each, <= 69: 24 and 63 measured + 10%, 32 and 75 while a route\x27s two arrays were allocated per attempt)"; exit 1 } }'
	$(GO) test ./internal/cluster -run '^$$' -bench 'BenchmarkWorkerTelemetryDisabled' -benchmem | awk ' \
		/^Benchmark/ { print; if ($$(NF-1)+0 != 0) bad = 1 } \
		END { if (bad) { print "alloc-guard: -no-telemetry worker path allocates (disabled shipping must be free)"; exit 1 } }'

	$(GO) test ./internal/operators ./internal/core ./internal/cluster -run '^$$' -bench 'BenchmarkRow' -benchtime 20x | awk ' \
		/^BenchmarkRow/ { print; v = -1; bytes = -1; for (i = 2; i <= NF; i++) { if ($$i == "allocs/row") v = $$(i-1) + 0; if ($$i == "B/row") bytes = $$(i-1) + 0 } \
			max = ($$1 ~ /^BenchmarkRow(JSON|Frame)/) ? 0.01 : ($$1 ~ /^BenchmarkRow(Shuffle|JoinProbe|OuterJoin|SemiJoin|ProbeInPlace)/) ? 0.05 : 0.1; \
			maxBytes = ($$1 ~ /^BenchmarkRowLeafScan/) ? 60.1 : ($$1 ~ /^BenchmarkRowJoinProbe/) ? 98.1 : ($$1 ~ /^BenchmarkRowOuterJoin/) ? 95.5 : ($$1 ~ /^BenchmarkRowProbeInPlace/) ? 1.6 : 0; \
			seen++; if (v < 0 || v > max) bad = 1; if (maxBytes > 0 && (bytes < 0 || bytes > maxBytes)) bad = 1 } \
		END { if (bad || seen != 11) { print "alloc-guard: embedding hot path over budget (allocs per row: JSON row writer and wire frame <= 0.01; shuffle, join probe, outer join, semi join and probe in place <= 0.05; leaf scan, merge, expand hop and expand loop <= 0.1; eleven kernels; heap bytes per output row: leaf scan <= 60.1, join probe <= 98.1, outer join <= 95.5 - 54.6, 89.2 and 86.8 measured + 10% on a warm lane; 60.8, 103.9 and 115.7 with a slab, a table and a route per attempt, 76.8, 129.3 and 150.5 with a slice header a row, and an append-grown output partition or an outer join of boxed rows several times that; heap bytes per scanned edge of a join probing a leaf in place <= 1.6 - 1.43 measured + 10%, 2.1 with a table per attempt, 60.8 if the leaf builds a row for every edge)"; exit 1 } }'
	$(GO) test ./internal/server -run '^$$' -bench 'BenchmarkQueryCacheHit' -benchmem | awk ' \
		/^BenchmarkQueryCacheHit/ { print; seen++; if ($$(NF-1)+0 > 51) bad = 1 } \
		END { if (bad || !seen) { print "alloc-guard: a result-cache hit over HTTP allocates more than 51 objects (46 measured)"; exit 1 } }'
	$(GO) test ./internal/server -run '^$$' -bench 'BenchmarkQueryExecuted' -benchtime 20x | awk ' \
		/^BenchmarkQueryExecuted/ { print; v = -1; bytes = -1; for (i = 2; i <= NF; i++) { if ($$i == "allocs/row") v = $$(i-1) + 0; if ($$i == "B/row") bytes = $$(i-1) + 0 } \
			seen++; if (v < 0 || v > 0.01 || bytes < 0 || bytes > 4) bad = 1 } \
		END { if (bad || seen != 1) { print "alloc-guard: the output path of an executed request allocates per row (serving 20 000 rows over HTTP beyond executing them: <= 0.01 allocs/row and <= 4 B/row, one chunk over those rows; 0.002 and 0.8 measured, 312 B/row with the body built by append)"; exit 1 } }'
	$(GO) test ./internal/session -run '^$$' -bench 'BenchmarkBind' -benchmem | awk ' \
		/^BenchmarkBind/ { print; seen++; if ($$(NF-1)+0 > 26) bad = 1 } \
		END { if (bad || !seen) { print "alloc-guard: binding the pinned graph and two scans allocate more than 26 objects (24 measured + 10%; 34 when a two-label scan concatenated its labels, 67 when Bind built a dataset per label)"; exit 1 } }'

# alloc-table prints where an executed request's bytes go: per request class
# of the benchmark KiB and objects a request, then bytes by allocating
# function over all twelve (heap profile, one sample per 4 KiB). A tool for
# EXPERIMENTS.md and ROADMAP's "where a request's bytes go", not a check.
alloc-table:
	$(GO) test ./internal/session -run '^TestAllocTable$$' -count=1 -v -args -alloc-table

# inline-guard holds the embedding's accessors inside the inliner's budget.
# They read a row through a pointer (DESIGN.md decision 29); written as
# re-slices of the whole row they compile, pass every test and stop being
# inlined, which measured 15 % of a request's CPU on the analytic workload.
INLINED = lens arrays idData entry Columns IsPath IsNullAt PathLen PathID SizeBytes WireSize
inline-guard:
	@$(GO) build -gcflags=-m ./internal/embedding 2>&1 | awk -v want="$(INLINED)" ' \
		/: can inline Embedding\./ { sub(/.*can inline Embedding\./, ""); ok[$$1] = 1 } \
		END { n = split(want, f, " "); for (i = 1; i <= n; i++) if (!ok[f[i]]) { print "inline-guard: embedding.Embedding." f[i] " is no longer inlinable"; bad = 1 } \
			if (bad) exit 1; print "inline-guard: " n " embedding accessors inline" }'

# figures-check regenerates the paper's evaluation (`cmd/bench -exp all`:
# Figures 3-5, Tables 3-4, cardinalities, the recovery table, every EXPLAIN
# ANALYZE plan) and diffs it, less the wall-clock self= column, against
# cmd/bench/testdata/exp_all.golden. All of it is the simulated cost model,
# so an engine PR that says it left the charges alone prints nothing here; one
# that moves them runs figures-update and shows the diff of the golden file.
figures-check:
	$(GO) test ./cmd/bench -run '^TestExpAllGolden$$' -count=1

figures-update:
	$(GO) test ./cmd/bench -run '^TestExpAllGolden$$' -count=1 -update
	git diff --stat -- cmd/bench/testdata/exp_all.golden

# check ends with two guards. The gauge test that was red on two cores for
# two PRs runs ten times: the broker must never show more reserved bytes than
# its budget (a charge is published only once it fits, see internal/govern).
# The grep keeps the deleted serving/cluster/chaos fork of cmd/bench from
# being cited back into existence: speed is measured by bench/
# (BENCHMARK.json), overload by chaos-smoke.
check: build vet lint race alloc-guard inline-guard figures-check
	$(GO) test -race -count=10 -run 'TestMetricsSnapshotUntorn' ./internal/session
	! grep -rnE -- '-exp (serve|cluster|chaos)|Run(Serve|Cluster)' README.md DESIGN.md EXPERIMENTS.md Makefile .github .claude cmd internal

# bench-smoke builds and tests the benchmark harness. bench/ is a module of
# its own, outside ./..., so nothing else notices when an engine change stops
# it compiling or moves its dataset pin.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# cluster-smoke builds the real cypherd and cypherworker binaries, spawns
# a coordinator plus two worker OS processes over a generated dataset,
# queries over HTTP, crashes one worker mid-query and requires the
# recovered result to be bit-identical to a plain single-process cypherd.
# A second, unarmed cluster then checks the observability plane across
# real processes: the merged Chrome trace (one lane per worker), the
# federated /metrics scrape and the /cluster/workers roster.
cluster-smoke:
	CLUSTER_E2E=1 $(GO) test ./internal/cluster -run '^TestClusterE2E$$' -count=1 -v -timeout 300s

# Regenerate the paper's evaluation (simulated cluster): Figures 3-5,
# Tables 3-4, the appendix cardinalities, plus the recovery-overhead
# experiment (runtime vs injected worker failures). Measured speed of the
# server and the real cluster is bench/run.sh, not this.
bench:
	$(GO) run ./cmd/bench -exp all

clean:
	$(GO) clean ./...
	rm -rf bin
