package main

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"time"

	"gradoop/internal/cluster"
	"gradoop/internal/core"
	"gradoop/internal/dataflow"
	"gradoop/internal/epgm"
	"gradoop/internal/obs"
	"gradoop/internal/server"
	"gradoop/internal/session"
	csvstore "gradoop/internal/storage/csv"
)

// partitions is cypherd's default -workers: the logical partition count of
// every query job, in process and on the cluster.
const partitions = 4

// sut is the system under test: one session behind a real HTTP listener on
// loopback, configured as cypherd configures it when started without flags,
// plus - for the cluster workload - a coordinator and its workers serving
// on loopback TCP inside this process.
type sut struct {
	sess    *session.Session
	handler *server.Server
	url     string

	httpSrv *http.Server
	served  chan error
	coord   *cluster.Coordinator
	workers []*clusterWorker

	// How long the parts of the cold start took.
	workerLoad, connect, open time.Duration
}

type clusterWorker struct {
	w      *cluster.Worker
	served chan error
}

// quietLogger formats every record cypherd would log, at cypherd's default
// level, and drops the bytes: the logging cost stays in the measurement,
// the terminal does not.
func quietLogger() *slog.Logger {
	h := slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo})
	return slog.New(obs.NewLogHandler(h))
}

// openSUT cold-starts the system from the CSV directory. wrap, when not
// nil, is put between the listener and the server's handler; the traced run
// uses it to record a span around ServeHTTP.
func openSUT(dir string, w workload, wrap func(http.Handler) http.Handler) (_ *sut, err error) {
	s := &sut{}
	defer func() {
		if err != nil {
			s.Close()
		}
	}()
	logger := quietLogger()
	registry := obs.NewRegistry()
	opts := session.Options{
		Workers:            partitions,
		MaxConcurrent:      4,
		MaxQueued:          16,
		DefaultTimeout:     30 * time.Second,
		PlanCacheEntries:   128,
		ResultCacheBytes:   16 << 20,
		NoResultCache:      !w.resultCache,
		Metrics:            registry,
		Logger:             logger,
		SlowQueryThreshold: 500 * time.Millisecond,
	}
	if w.cluster {
		if err := s.startCluster(dir, registry, logger); err != nil {
			return nil, err
		}
		opts.Remote = s.coord
	}
	t0 := time.Now()
	s.sess, err = session.Open(dir, opts)
	if err != nil {
		return nil, fmt.Errorf("open session: %w", err)
	}
	s.open = time.Since(t0)

	s.handler = server.New(s.sess, server.Config{Metrics: registry, Logger: logger})
	var h http.Handler = s.handler
	if wrap != nil {
		h = wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.httpSrv = &http.Server{Handler: h}
	s.served = make(chan error, 1)
	go func() { s.served <- s.httpSrv.Serve(ln) }()
	s.url = "http://" + ln.Addr().String() + "/query"
	return s, nil
}

// startCluster loads two workers the way cmd/cypherworker does - each reads
// the CSV directory itself - and connects a coordinator to them.
func (s *sut) startCluster(dir string, registry *obs.Registry, logger *slog.Logger) error {
	t0 := time.Now()
	var addrs []string
	for i := 0; i < 2; i++ {
		env := dataflow.NewEnv(dataflow.DefaultConfig(partitions))
		g, err := csvstore.ReadLogicalGraph(env, dir)
		if err != nil {
			return fmt.Errorf("worker %d load: %w", i, err)
		}
		w := cluster.NewWorkerWith(fmt.Sprintf("w%d", i+1), session.NewGraphData(g), cluster.WorkerOptions{
			Logger:  logger,
			Metrics: obs.NewRegistry(),
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		cw := &clusterWorker{w: w, served: make(chan error, 1)}
		go func() { cw.served <- w.Serve(ln) }()
		s.workers = append(s.workers, cw)
		addrs = append(addrs, ln.Addr().String())
	}
	s.workerLoad = time.Since(t0)

	t0 = time.Now()
	part, _ := cluster.PartitionerByName("rendezvous")
	coord, err := cluster.NewCoordinator(addrs, cluster.Options{
		Workers:     partitions,
		Partitioner: part,
		Metrics:     registry,
		Logger:      logger,
	})
	if err != nil {
		return fmt.Errorf("coordinator: %w", err)
	}
	s.coord = coord
	s.connect = time.Since(t0)
	return nil
}

// Close stops the listener, the coordinator and the workers and returns
// once every goroutine they started has ended. It also makes the program let
// go of the session's graph: core memoises statistics per graph for the life
// of the process and a session drops its entry only when it swaps graphs, so
// without the swap every system a run ever opened would stay reachable (25 MB
// each at SF 3) and the later cold starts and the timed phase would run on a
// heap no cypherd has.
func (s *sut) Close() {
	if s.sess != nil {
		empty := epgm.GraphFromSlices(dataflow.NewEnv(dataflow.DefaultConfig(1)), "", nil, nil)
		s.sess.SwapGraph(empty)
		core.DropGraphStats(empty)
	}
	if s.httpSrv != nil {
		s.httpSrv.Close()
		if err := <-s.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(stderr, "bench: http server: %v\n", err)
		}
	}
	if s.coord != nil {
		s.coord.Close()
	}
	for _, cw := range s.workers {
		cw.w.Close()
		if err := <-cw.served; err != nil {
			fmt.Fprintf(stderr, "bench: worker %s: %v\n", cw.w.Node(), err)
		}
		cw.w.Wait()
	}
}
