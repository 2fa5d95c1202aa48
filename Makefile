# Build/verify entry points. `make check` is the CI gate: vet, plus the full
# test suite under the race detector — load-bearing, because runStage spawns
# one goroutine per partition and the fault-tolerance layer (panic
# containment, cancellation polling, retry loops) is concurrent by design. The
# packages that start goroutines or open connections and files run under
# internal/leakcheck, so the same run fails on a goroutine or a descriptor a
# test left behind.

GO ?= go

# Third-party linters, pinned. They are optional locally (this repo builds
# offline; the tools are skipped when not installed) and mandatory in CI,
# where `make lint-tools` installs exactly these versions.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: all build test vet lint lint-tools fuzz-smoke race chaos-smoke alloc-guard alloc-table plan-notes inline-guard figures-check figures-update cluster-smoke bench-smoke check bench clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint is vet, then staticcheck and govulncheck when they are on PATH.
lint: vet
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
# idempotent and literal-preserving, a frame, a shuffle bucket or a telemetry
# bundle off the socket reads or is an error, a row off the socket is an error or
# views that end inside it - under -race, so checkptr holds the row's
# unsafe.Slice views to their allocation) without open-ended fuzzing.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/session -run '^FuzzCanonicalQuery$$' -fuzz '^FuzzCanonicalQuery$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/cypher -run '^FuzzParse$$' -fuzz '^FuzzParse$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/gdl -run '^FuzzParse$$' -fuzz '^FuzzParse$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wire -run '^FuzzParamsRoundTrip$$' -fuzz '^FuzzParamsRoundTrip$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core -run '^FuzzAppendJSONValue$$' -fuzz '^FuzzAppendJSONValue$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/operators -run '^FuzzDecodeBucket$$' -fuzz '^FuzzDecodeBucket$$' -fuzztime=$(FUZZTIME)
	$(GO) test -race ./internal/embedding -run '^FuzzDecodeWire$$' -fuzz '^FuzzDecodeWire$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/cluster -run '^FuzzDecodeTelemetryBundle$$' -fuzz '^FuzzDecodeTelemetryBundle$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/cluster -run '^FuzzReadFrame$$' -fuzz '^FuzzReadFrame$$' -fuzztime=$(FUZZTIME)

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
# side again) and a six-hop walk over a pinned store (decision 41: that kernel
# itself fails if a walk that writes no row allocates per visited edge) on
# embedding-shaped rows, a leaf scan that tests a key set (decision 43: under a
# byte a scanned edge, rows for the edges it keeps only), an end set
# transferred back across a walk over a pinned store (decision 44: under a
# thousandth of an object and some 57 bytes a reached vertex, a memo of a byte
# a vertex reused for every partition), and the output path (decisions 20 and 31): the JSON row
# writer allocates nothing per row, whether its cells read the row or, by the
# row's id, the store (decision 47), a result-cache hit served over HTTP
# costs a fixed handful, and what serving 20 000 executed rows over HTTP
# allocates beyond executing them is hundredths of an object and under a byte
# a row, because the body is never built (312 B a row when it was grown by
# append; the bound is one chunk over those rows); and the wire (decisions 21
# and 34): framing a shuffle's buckets and reading them back costs a fixed
# handful of objects per frame and, in bytes, the receiving copy and no more,
# because the rows are views of the frame and the sender writes them into the
# connection's buffer without building a bucket - and on a worker (decision 38)
# not even that, under a byte a row, because a frame is read into its attempt's
# receive arena, which goes back to the worker when the attempt ends and the
# next attempt carves from; and the stage primitive (decision 24): a
# FlatMapWith and a JoinWith stage over four partitions cost no heap object
# per partition attempt for the attempt's handle (21 and 33 objects a stage
# since PR 22 allocated the eight-row outputs once; 33 and 46 before; the
# same 33 since the probe loop also serves OuterJoinWith and SemiJoinWith,
# decision 28) and, on a warm lane (decision 32), none for a one-shot join's
# table or an exchange's route (21 and 21: the table's three arrays and the
# route's two per partition are the lane's), nor for an output sized before it
# is written (17 and 17: decision 25, rows are staged in the lane and published
# at their length); and, since a job borrows its lanes from the process
# (decision 32), a job of five stages on a new Env costs no object for the
# lanes' tables, routes and staging buffers (115 objects; 187 while every job
# made its own lanes); the same benchmark holds the
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
# scan concatenated its labels); and the join that reads a leaf where it lies
# (decision 46): 20 000 edges read off the store's adjacency, and 20 000
# vertices looked up by id, cost the merged row and its header a walked edge
# or a looked-up row, because the leaf's row is made in a buffer the lane
# reuses and the output is allocated once at the candidates the lists or the
# ids hold - no scan, count, broadcast or table; and a prepared query bound to
# a request (decision 11): a fresh environment, the pinned store bound to it and
# the binding cost 36 to 44 objects per yardstick query, because every run
# shares the plan's operator tree and binding copies none of it; and planning
# (decision 35): core.PrepareWith of a yardstick query, which a session runs on
# a plan-cache miss and a cluster worker on its own cache's, allocates no more
# than before the planner worked out what every join keeps, + 10%, because the
# rule reads sets of the query's variables built once per query and nothing per
# candidate join; and what a plan is paid once for (decision 36): a prepared
# query's fingerprint costs nothing after its first call, and a worker job
# whose plan is cached allocates 19 to 23 objects between its mesh and its run;
# and what a worker reports (decision 37): the done report of an untraced
# attempt is read from the collector in place and sent as one binary message,
# and a collector carves a stage from chunks, a fixed few objects a job.
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
		/^BenchmarkStageAttempt\/FlatMapWith/ { print; seen++; if ($$(NF-1)+0 > 14) bad = 1 } \
		/^BenchmarkStageAttempt\/JoinWith/    { print; seen++; if ($$(NF-1)+0 > 14) bad = 1 } \
		/^BenchmarkStageAttempt\/Shuffle-/     { print; seen++; if ($$(NF-1)+0 > 26) bad = 1 } \
		/^BenchmarkStageAttempt\/Shuffle2proc/ { print; seen++; if ($$(NF-1)+0 > 69) bad = 1 } \
		END { if (bad || seen != 4) { print "alloc-guard: a stage on a warm lane allocates more objects than its output allocated once and the stage\x27s own few (FlatMapWith <= 14 allocs/op, JoinWith <= 14: 13 and 13 measured + 10% with the emit callback kept with the lane\x27s staging buffer; 19 and 19 - 17 and 17 measured - while every attempt made its emit closure, with outputs staged in the lane and published at their length; 23 and 23 - 21 and 21 measured - while each output partition was allocated at a count or an input length before it was written, 33 for the join while its table\x27s three arrays were allocated per attempt, 33 and 46 with append-grown outputs; the attempt handle must cost no object per attempt, and an inner join none for the epilogue of the outer join), or the one exchange more than its windows and buckets (Shuffle, in process, <= 26; Shuffle2proc, two processes of the test cluster owning two partitions each, <= 69: 24 and 63 measured + 10%, 32 and 75 while a route\x27s two arrays were allocated per attempt)"; exit 1 } }'
	$(GO) test ./internal/dataflow -run '^$$' -bench 'BenchmarkJobOnBorrowedLanes' -benchmem | awk ' \
		/^BenchmarkJobOnBorrowedLanes/ { print; seen++; if ($$(NF-1)+0 > 126) bad = 1 } \
		END { if (bad || seen != 1) { print "alloc-guard: a job of a scan, a join and a shuffle on a new Env, after a warm one, allocates more than 126 objects (115 measured + 10%; the lanes, their tables, routes and staging buffers, are borrowed from the process and cost none: 187 while every job made its lanes and allocated each output at a count before writing it)"; exit 1 } }'
	$(GO) test ./internal/cluster -run '^$$' -bench 'BenchmarkWorkerTelemetryDisabled' -benchmem | awk ' \
		/^Benchmark/ { print; if ($$(NF-1)+0 != 0) bad = 1 } \
		END { if (bad) { print "alloc-guard: a failed attempt\x27s done report allocates (it must allocate nothing)"; exit 1 } }'
	$(GO) test ./internal/cluster -run '^$$' -bench 'BenchmarkWorkerReport' -benchmem | awk ' \
		/^BenchmarkWorkerReport/ { print; seen++; if ($$(NF-1)+0 > 41) bad = 1 } \
		END { if (bad || seen != 1) { print "alloc-guard: the done report of an untraced attempt - stage table, encode and decode - allocates more than 41 objects (38 measured + 10%; the stage table is read from the collector in place, not from a copy of its spans)"; exit 1 } }'
	$(GO) test ./internal/trace -run '^$$' -bench 'BenchmarkCollectorStage' -benchmem | awk ' \
		/^BenchmarkCollectorStage/ { print; seen++; if ($$(NF-1)+0 > 6) bad = 1 } \
		END { if (bad || seen != 1) { print "alloc-guard: a collector of one stage of four partition attempts allocates more than 6 objects (6 measured; a span, its partition slots and its attempts are carved from the collector\x27s chunks and read in place: 13 objects when each was allocated and the spans were copied out to be read)"; exit 1 } }'

	$(GO) test ./internal/operators ./internal/core ./internal/cluster -run '^$$' -bench 'BenchmarkRow' -benchtime 20x | awk ' \
		/^BenchmarkRow/ { print; v = -1; bytes = -1; for (i = 2; i <= NF; i++) { if ($$i == "allocs/row") v = $$(i-1) + 0; if ($$i == "B/row") bytes = $$(i-1) + 0 } \
			max = ($$1 ~ /^BenchmarkRowTransferWalk/) ? 0.00083 : ($$1 ~ /^BenchmarkRow(WalkJoin|LookupJoin)/) ? 0.0029 : ($$1 ~ /^BenchmarkRow(JSON|Frame|LeafKeySet)/) ? 0.01 : ($$1 ~ /^BenchmarkRow(Shuffle|JoinProbe|OuterJoin|SemiJoin)/) ? 0.05 : 0.1; \
			maxBytes = ($$1 ~ /^BenchmarkRowLeafScan/) ? 60.1 : ($$1 ~ /^BenchmarkRowJoinProbe/) ? 98.1 : ($$1 ~ /^BenchmarkRowOuterJoin/) ? 92.3 : ($$1 ~ /^BenchmarkRow(WalkJoin|LookupJoin)/) ? 82.7 : ($$1 ~ /^BenchmarkRowLeafKeySet/) ? 0.76 : ($$1 ~ /^BenchmarkRowTransferWalk/) ? 63.1 : ($$1 ~ /^BenchmarkRowFrame\/worker/) ? 1 : ($$1 ~ /^BenchmarkRowFrame/) ? 53.9 : 0; \
			seen++; if (v < 0 || v > max) bad = 1; if (maxBytes > 0 && (bytes < 0 || bytes > maxBytes)) bad = 1 } \
		END { if (bad || seen != 17) { print "alloc-guard: embedding hot path over budget (allocs per row: an end set transferred back across a walk, per reached vertex, <= 0.00083 - 0.00076 measured + 10%; a walked join, per walked edge, and a join that looks a vertex leaf up, per looked-up row, <= 0.0029 - 0.0026 measured + 10%; JSON row writer, of carried cells and of cells read from the store by id, wire frame, coordinator and worker, and a leaf scan that tests a key set, per scanned edge, <= 0.01; shuffle, join probe, outer join and semi join <= 0.05; leaf scan, merge, expand hop, expand loop and expand walk <= 0.1; seventeen kernels; heap bytes per vertex an end set\x27s transfer reaches <= 63.1 - 57.3 measured + 10%: 26 of them the set\x27s slots, 1 the memo of a byte a vertex, the rest mostly the keys\x27 one array, grown from a key an input row; heap bytes per output row: leaf scan <= 60.1, join probe <= 98.1, outer join <= 92.3 - 54.6, 89.2 and 83.9 measured + 10% on a warm lane, outputs staged and published at their length (the outer join\x27s bound 95.5 from 86.8 while it was allocated at its probe rows plus its pairs); 60.8, 103.9 and 115.7 with a slab, a table and a route per attempt, 76.8, 129.3 and 150.5 with a slice header a row, and an append-grown output partition or an outer join of boxed rows several times that; heap bytes per walked edge of a walked join and per looked-up row of a join that looks a vertex leaf up <= 82.7 - 75.15 and 75.16 measured + 10%, the merged row and its header: 123.6 if every edge\x27s row were carved in the slab, 97.9 with an output grown by append; heap bytes per scanned edge of a leaf scan that tests a key set <= 0.76 - 0.65-0.69 measured + 10% (a slab chunk more or less in the window), 54.7 if it built a row for every edge; heap bytes per row of a shuffle frame, rows to rows, read by the coordinator <= 53.9 - the receiving copy, the frame body of 49.0 bytes a row, + 10%; 98.4 when the sender built every bucket - and by a worker into an attempt\x27s receive arena, given back every op, <= 1 - 0.07 measured, 49.2 when every frame got a body of its own)"; exit 1 } }'
	$(GO) test ./internal/server -run '^$$' -bench 'BenchmarkQueryCacheHit' -benchmem | awk ' \
		/^BenchmarkQueryCacheHit/ { print; seen++; if ($$(NF-1)+0 > 51) bad = 1 } \
		END { if (bad || !seen) { print "alloc-guard: a result-cache hit over HTTP allocates more than 51 objects (46 measured)"; exit 1 } }'
	$(GO) test ./internal/server -run '^$$' -bench 'BenchmarkQueryExecuted' -benchtime 20x | awk ' \
		/^BenchmarkQueryExecuted/ { print; v = -1; bytes = -1; for (i = 2; i <= NF; i++) { if ($$i == "allocs/row") v = $$(i-1) + 0; if ($$i == "B/row") bytes = $$(i-1) + 0 } \
			seen++; if (v < 0 || v > 0.01 || bytes < 0 || bytes > 4) bad = 1 } \
		END { if (bad || seen != 1) { print "alloc-guard: the output path of an executed request allocates per row (serving 20 000 rows over HTTP beyond executing them: <= 0.01 allocs/row and <= 4 B/row, one chunk over those rows; 0.002 and 0.8 measured, 312 B/row with the body built by append)"; exit 1 } }'
	$(GO) test ./internal/storage/csv -run '^$$' -bench 'BenchmarkReadLogicalGraph' -benchtime 5x | awk ' \
		/^BenchmarkReadLogicalGraph/ { print; v = -1; for (i = 2; i <= NF; i++) if ($$i == "allocs/elem") v = $$(i-1) + 0; \
			seen++; if (v < 0 || v > 1.38) bad = 1 } \
		END { if (bad || seen != 1) { print "alloc-guard: reading a CSV dataset allocates more than 1.38 objects per element (1.25 measured + 10%: an element\x27s properties, allocated at their final length, and one string of its string values; the file, its array and a label or graph membership per distinct field are per file; 10.75 when every line, field and membership was an object of its own and the arrays grew by append)"; exit 1 } }'
	$(GO) test ./internal/session -run '^$$' -bench 'BenchmarkBind' -benchmem | awk ' \
		/^BenchmarkBind/ { print; seen++; if ($$(NF-1)+0 > 26) bad = 1 } \
		END { if (bad || !seen) { print "alloc-guard: binding the pinned graph and two scans allocate more than 26 objects (24 measured + 10%; 34 when a two-label scan concatenated its labels, 67 when Bind built a dataset per label)"; exit 1 } }'
	$(GO) test ./internal/session -run '^$$' -bench 'BenchmarkPreparedBind' -benchmem | awk ' \
		BEGIN { max["Q1"] = 39; max["Q2"] = 44; max["Q3"] = 48; max["Q4"] = 47; max["Q5"] = 42; max["Q6"] = 45 } \
		/^BenchmarkPreparedBind\// { print; split($$1, name, "[/-]"); seen++; if ($$(NF-1)+0 > max[name[2]]) bad = 1 } \
		END { if (bad || seen != 6) { print "alloc-guard: binding a prepared yardstick query to a request builds objects per operator (Q1-Q6 <= 39, 44, 48, 47, 42, 45 allocs/op with a fresh Env and access: 36, 40, 44, 43, 39 and 41 measured + 10%; 91, 132, 197, 235, 150 and 198 while Bind copied the operator tree)"; exit 1 } }'
	$(GO) test ./internal/session -run '^$$' -bench 'BenchmarkPrepare$$' -benchmem | awk ' \
		BEGIN { max["Q1"] = 155; max["Q2"] = 233; max["Q3"] = 389; max["Q4"] = 468; max["Q5"] = 325; max["Q6"] = 398 } \
		/^BenchmarkPrepare\// { print; split($$1, name, "[/-]"); seen++; if ($$(NF-1)+0 > max[name[2]]) bad = 1 } \
		END { if (bad || seen != 6) { print "alloc-guard: planning a yardstick query, which a session does on a plan-cache miss and a cluster worker on the first job of a query on a statistics snapshot, allocates more than it did before its rows were narrowed (Q1-Q6 <= 155, 233, 389, 468, 325, 398 allocs/op over the statistics of SF 3: 141, 212, 354, 426, 296 and 362 measured then + 10%; the keep-masks are worked out with no object per candidate join)"; exit 1 } }'
	$(GO) test ./internal/session -run '^$$' -bench 'BenchmarkFingerprint' -benchmem | awk ' \
		/^BenchmarkFingerprint\// { print; seen++; if ($$(NF-1)+0 != 0) bad = 1 } \
		END { if (bad || seen != 6) { print "alloc-guard: the fingerprint of a prepared yardstick query is rendered again after its first call (Q1-Q6 must be 0 allocs/op: the session, the coordinator and every worker job read the memo)"; exit 1 } }'
	$(GO) test ./internal/cluster -run '^$$' -bench 'BenchmarkWorkerPlanHit' -benchmem | awk ' \
		BEGIN { max["Q1"] = 19; max["Q2"] = 19; max["Q3"] = 19; max["Q4"] = 15; max["Q5"] = 15; max["Q6"] = 15 } \
		/^BenchmarkWorkerPlanHit\// { print; split($$1, name, "[/-]"); seen++; if ($$(NF-1)+0 > max[name[2]]) bad = 1 } \
		END { if (bad || seen != 6) { print "alloc-guard: a worker job whose plan is cached allocates more between its mesh and its run than decoding its parameters and binding a fresh environment (Q1-Q6 <= 19, 19, 19, 15, 15, 15 allocs/op: 18, 18, 18, 14, 14 and 14 measured + 10%; 25, 25, 25, 20, 20 and 20 before, set at 23 and 19 measured; 160-380 while every job planned)"; exit 1 } }'

# alloc-table prints where an executed request's bytes go: per request class
# of the benchmark KiB and objects a request, then bytes by allocating
# function over all twelve (heap profile, one sample per 4 KiB); then the same
# two tables for the cluster, the four analytic classes on a coordinator and
# two TCP workers inside the test process (cluster_2w's). A tool for
# EXPERIMENTS.md and ROADMAP's "where a request's bytes go", not a check.
alloc-table:
	$(GO) test ./internal/session -run '^TestAllocTable$$' -count=1 -v -args -alloc-table
	$(GO) test ./internal/cluster -run '^TestAllocTable$$' -count=1 -v -args -alloc-table

# plan-notes prints, per request class of the benchmark, the analyzed plan of
# one traced request over the pinned store (SF 3, seed 2017, 4 partitions)
# without its wall times: which key sets were made and where they were tested,
# which joins broadcast or repartitioned, and every operator's act= count. A
# change meant to run the same plans the same way prints what its parent
# prints. A tool for diffing two commits, not a check.
plan-notes:
	$(GO) test ./internal/session -run '^TestPlanNotes$$' -count=1 -v -args -plan-notes

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
