package main

import (
	"net"
	"strings"
	"testing"

	"gradoop/internal/dataflow"
	"gradoop/internal/ldbc"
	"gradoop/internal/leakcheck"
	csvstore "gradoop/internal/storage/csv"
)

// TestMain fails the package's run if it leaves a goroutine of the module
// running or a descriptor open: the query store's segment file, say.
func TestMain(m *testing.M) { leakcheck.Main(m) }

// TestTakenAddressClosesTheQueryStore: a server that cannot listen returns its
// error through every deferred close - the query store's Sync and Close
// among them - instead of exiting past them.
func TestTakenAddressClosesTheQueryStore(t *testing.T) {
	graph := t.TempDir()
	g := ldbc.Generate(dataflow.NewEnv(dataflow.DefaultConfig(1)), ldbc.Config{ScaleFactor: 0.02, Seed: 4}).Graph
	if err := csvstore.WriteLogicalGraph(g, graph); err != nil {
		t.Fatal(err)
	}
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	err = run([]string{"-graph", graph, "-addr", taken.Addr().String(), "-qstore-dir", t.TempDir(), "-log-level", "error"})
	if err == nil || !strings.Contains(err.Error(), "address already in use") {
		t.Fatalf("run = %v, want the taken address's error", err)
	}
}
