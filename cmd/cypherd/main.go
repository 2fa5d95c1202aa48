// Command cypherd serves Cypher queries over JSON-HTTP against a graph
// loaded once into a long-lived session. The session pins graph statistics
// and label indexes, caches compiled query plans and recent results, and
// admission-controls concurrent requests with bounded job slots and a
// bounded wait queue. Telemetry is on by default: a metrics registry the
// engine, session and server publish into (Prometheus exposition at
// /metrics), structured logs correlated by X-Trace-Id, a slow-query log,
// and a live /jobs view of in-flight queries. -ops-addr starts a second,
// operator-only listener with the pprof endpoints.
//
// -qstore-dir enables the persistent query store: one JSONL record per
// completed execution, per-fingerprint aggregates with plan-regression
// detection, and the /querystore endpoints.
//
// Endpoints: POST/GET /query, /explain, /analyze, /metrics,
// /metrics.json, /jobs, /querystore/top, /querystore/fingerprint/{id},
// /querystore/regressions, /healthz — plus, in -cluster mode,
// /cluster/workers (the roster with liveness and per-worker job counts);
// /metrics then also federates the workers' last-shipped registry
// snapshots as per-worker-labeled gradoop_cluster_* series, so one scrape
// covers the whole cluster.
//
//	cypherd -graph data/sample -addr :7474 -ops-addr 127.0.0.1:7475
//	curl -s localhost:7474/query -d '{"query":"MATCH (a:Person) RETURN a.name"}'
//	curl -s localhost:7474/metrics | grep gradoop_query_duration
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gradoop/internal/cluster"
	"gradoop/internal/govern"
	"gradoop/internal/obs"
	"gradoop/internal/operators"
	"gradoop/internal/qstore"
	"gradoop/internal/server"
	"gradoop/internal/session"
)

func parseSemantics(s string) (operators.Semantics, error) {
	switch strings.ToLower(s) {
	case "homo", "homomorphism":
		return operators.Homomorphism, nil
	case "iso", "isomorphism":
		return operators.Isomorphism, nil
	default:
		return 0, fmt.Errorf("unknown semantics %q (want homo or iso)", s)
	}
}

// newLogger builds the process logger: text or JSON handler at the chosen
// level, wrapped so every record carries the trace_id stamped into its
// context by the server.
func newLogger(format, level string) (*slog.Logger, error) {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown log level %q (want debug|info|warn|error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	var h slog.Handler
	switch strings.ToLower(format) {
	case "text":
		h = slog.NewTextHandler(os.Stderr, opts)
	case "json":
		h = slog.NewJSONHandler(os.Stderr, opts)
	default:
		return nil, fmt.Errorf("unknown log format %q (want text|json)", format)
	}
	return slog.New(obs.NewLogHandler(h)), nil
}

func main() {
	graphDir := flag.String("graph", "", "Gradoop-CSV dataset directory (required)")
	addr := flag.String("addr", ":7474", "HTTP listen address")
	workers := flag.Int("workers", 4, "number of dataflow workers per query job")
	vertexSem := flag.String("vertex-sem", "homo", "vertex semantics: homo|iso")
	edgeSem := flag.String("edge-sem", "iso", "edge semantics: homo|iso")
	maxConcurrent := flag.Int("max-concurrent", 4, "query job slots (concurrent executions)")
	maxQueued := flag.Int("max-queue", 16, "bounded wait queue beyond the job slots; -1 rejects immediately when slots are full")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-query deadline, including queue wait (0 = none)")
	planEntries := flag.Int("plan-cache-entries", 128, "plan cache capacity (entries)")
	resultMB := flag.Int("result-cache-mb", 16, "result cache byte budget in MiB")
	memBudgetMB := flag.Int("mem-budget", 0, "process-wide memory budget for materialized embeddings, in MiB (0 disables governance)")
	shedPolicy := flag.String("shed-policy", "largest", "victim selection on budget exhaustion: largest|self")
	noPlanCache := flag.Bool("no-plan-cache", false, "disable the plan cache (recompile every request)")
	noResultCache := flag.Bool("no-result-cache", false, "disable the result cache (re-execute every request)")
	noTelemetry := flag.Bool("no-telemetry", false, "disable the metrics registry (nil instruments; /metrics serves an empty exposition)")
	logFormat := flag.String("log-format", "text", "structured log format: text|json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug|info|warn|error")
	slowQuery := flag.Duration("slow-query", 500*time.Millisecond, "slow-query log threshold (0 disables)")
	opsAddr := flag.String("ops-addr", "", "operator-only listen address for pprof (empty disables); bind to loopback")
	qstoreDir := flag.String("qstore-dir", "", "query-store directory for persistent per-execution records (empty disables the store)")
	qstoreMaxBytes := flag.Int64("qstore-max-bytes", qstore.DefaultMaxTotalBytes, "query-store total size bound in bytes; oldest segments are pruned past it")
	qstoreThreshold := flag.Float64("qstore-regression-threshold", qstore.DefaultRegressionThreshold, "flag a fingerprint when its recent latency or q-error exceeds its own baseline by this factor")
	clusterAddrs := flag.String("cluster", "", "comma-separated cypherworker addresses; queries execute across these processes instead of in-process")
	clusterPart := flag.String("cluster-partitioner", "rendezvous", "partition placement policy: rendezvous|range")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "cypherd: %v\n", err)
		os.Exit(1)
	}
	if *graphDir == "" {
		fmt.Fprintln(os.Stderr, "cypherd: -graph is required")
		flag.Usage()
		os.Exit(2)
	}
	vs, err := parseSemantics(*vertexSem)
	if err != nil {
		fail(err)
	}
	es, err := parseSemantics(*edgeSem)
	if err != nil {
		fail(err)
	}
	logger, err := newLogger(*logFormat, *logLevel)
	if err != nil {
		fail(err)
	}
	policy, err := govern.ParsePolicy(*shedPolicy)
	if err != nil {
		fail(err)
	}

	var registry *obs.Registry
	if !*noTelemetry {
		registry = obs.NewRegistry()
	}

	var store *qstore.Store
	if *qstoreDir != "" {
		store, err = qstore.Open(qstore.Options{
			Dir:                 *qstoreDir,
			MaxTotalBytes:       *qstoreMaxBytes,
			RegressionThreshold: *qstoreThreshold,
			Metrics:             registry,
			Logger:              logger,
		})
		if err != nil {
			fail(err)
		}
		defer store.Close()
	}

	var remote session.RemoteExecutor
	if *clusterAddrs != "" {
		part, ok := cluster.PartitionerByName(*clusterPart)
		if !ok {
			fail(fmt.Errorf("unknown -cluster-partitioner %q (want rendezvous or range)", *clusterPart))
		}
		coord, err := cluster.NewCoordinator(strings.Split(*clusterAddrs, ","), cluster.Options{
			// The logical partition count is the session's worker count: the
			// coordinator's plan and every worker's plan must be the same
			// deterministic function of (query, stats, workers).
			Workers:     *workers,
			Partitioner: part,
			Metrics:     registry,
			Logger:      logger,
		})
		if err != nil {
			fail(err)
		}
		defer coord.Close()
		remote = coord
		logger.Info("cluster mode", "workers", coord.LiveWorkers(), "partitioner", part.Name())
	}

	sess, err := session.Open(*graphDir, session.Options{
		Workers:            *workers,
		Vertex:             vs,
		Edge:               es,
		MaxConcurrent:      *maxConcurrent,
		MaxQueued:          *maxQueued,
		DefaultTimeout:     *timeout,
		PlanCacheEntries:   *planEntries,
		ResultCacheBytes:   int64(*resultMB) << 20,
		MemoryBudget:       int64(*memBudgetMB) << 20,
		ShedPolicy:         policy,
		NoPlanCache:        *noPlanCache,
		NoResultCache:      *noResultCache,
		Metrics:            registry,
		Logger:             logger,
		SlowQueryThreshold: *slowQuery,
		QueryStore:         store,
		Remote:             remote,
	})
	if err != nil {
		fail(err)
	}
	defer sess.Close()
	vertices, edges := sess.GraphSize()
	logger.Info("graph loaded", "dir", *graphDir, "vertices", vertices, "edges", edges)

	handler := server.New(sess, server.Config{Metrics: registry, Logger: logger})
	// A client gets as long to send its headers as a query gets to run; the
	// handler gives the delivery of a query's answer the same time itself.
	httpSrv := &http.Server{Addr: *addr, Handler: handler, ReadHeaderTimeout: *timeout}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *opsAddr != "" {
		opsSrv := &http.Server{Addr: *opsAddr, Handler: server.NewOpsMux()}
		//lint:ignore goleak process-lifetime listener; the deferred opsSrv.Close below bounds it at shutdown
		go func() {
			logger.Info("ops listener up", "addr", *opsAddr)
			if err := opsSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("ops listener failed", "err", err)
			}
		}()
		defer opsSrv.Close()
	}

	done := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr,
			"slots", *maxConcurrent, "queue", *maxQueued, "timeout", *timeout)
		done <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fail(err)
		}
	case <-ctx.Done():
		logger.Info("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			fail(err)
		}
	}
}
