// Command cypherworker is one worker process of a cypherd cluster. It
// loads the same Gradoop-CSV dataset as the coordinator, listens for the
// coordinator's control connection and for shuffle connections from its
// peer workers, and executes the stage programs the coordinator ships.
// Partition ownership, the job roster and recovery are entirely the
// coordinator's business — a worker only needs the graph and a listen
// address.
//
//	cypherworker -graph data/sample -addr 127.0.0.1:7481 -node w1
//	cypherd -graph data/sample -cluster 127.0.0.1:7481,127.0.0.1:7482
//
// -fail-after is a fault-injection hook for recovery drills: the worker
// kills itself (listener and every connection closed, exactly as a crash
// would) after that many collective shuffle exchanges.
//
// Each worker keeps its own metrics registry and ships a snapshot of it to
// the coordinator on the heartbeat - when the coordinator connects, then
// after a job, at most one heartbeat (500 ms) late - and the coordinator's
// federated /metrics serves the result; a request that asks for a trace also
// gets the worker's execution spans of its job, and no other request does.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"strings"

	"gradoop/internal/cluster"
	"gradoop/internal/dataflow"
	"gradoop/internal/obs"
	"gradoop/internal/session"
	csvstore "gradoop/internal/storage/csv"
)

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
	graphDir := flag.String("graph", "", "Gradoop-CSV dataset directory (required; must match the coordinator's)")
	addr := flag.String("addr", "127.0.0.1:7481", "listen address for coordinator and peer connections")
	node := flag.String("node", "", "stable node ID for partition placement (default: the listen address)")
	failAfter := flag.Int64("fail-after", 0, "fault injection: crash after N collective exchanges (0 disables)")
	logFormat := flag.String("log-format", "text", "structured log format: text|json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug|info|warn|error")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "cypherworker: %v\n", err)
		os.Exit(1)
	}
	if *graphDir == "" {
		fmt.Fprintln(os.Stderr, "cypherworker: -graph is required")
		flag.Usage()
		os.Exit(2)
	}
	logger, err := newLogger(*logFormat, *logLevel)
	if err != nil {
		fail(err)
	}

	// The loading environment and the graph read into it are scratch: the
	// worker pins the label-partitioned store built from them and binds that
	// to each job's own environment.
	env := dataflow.NewEnv(dataflow.DefaultConfig(4))
	g, err := csvstore.ReadLogicalGraph(env, *graphDir)
	if err != nil {
		fail(err)
	}
	data := session.NewGraphData(g)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	id := *node
	if id == "" {
		id = ln.Addr().String()
	}
	w := cluster.NewWorkerWith(id, data, cluster.WorkerOptions{
		Logger:  logger,
		Metrics: obs.NewRegistry(),
	})
	if *failAfter > 0 {
		w.SetFailAfterExchanges(*failAfter)
		logger.Warn("fault injection armed", "fail_after_exchanges", *failAfter)
	}
	logger.Info("worker up", "node", id, "addr", ln.Addr().String(),
		"vertices", len(data.Vertices), "edges", len(data.Edges))
	if err := w.Serve(ln); err != nil {
		fail(err)
	}
	// Serve returned because Crash/Close severed the sockets; drain the
	// connection handlers and job goroutines before the process exits.
	w.Wait()
}
