package cluster_test

import (
	"fmt"
	"net"
	"testing"
	"time"

	"gradoop/internal/cluster"
	"gradoop/internal/session"
)

// awaitJoin runs a blocking join (Coordinator.Close, Worker.Wait) and fails
// if it does not return promptly. The regression mode for the goroutine
// joins is a hang: a join waiting on a goroutine whose exit nothing drives.
func awaitJoin(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s did not return: a spawned goroutine was never driven to exit", what)
	}
}

// TestClusterShutdownJoinsGoroutines pins the goleak fixes on the live
// paths: after a distributed query has spawned the coordinator's member
// read loops and the workers' connection handlers, job executors and peer
// routers, Coordinator.Close and Worker.Wait must both join them — and
// must actually return, i.e. teardown drives every one of those goroutines
// to exit. Run under -race this also checks the joins are properly
// synchronized with the goroutines they cover.
func TestClusterShutdownJoinsGoroutines(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns TCP worker meshes")
	}
	data, d := testGraph(t)
	workers, addrs := startWorkers(t, data, 2)
	coord, err := cluster.NewCoordinator(addrs, cluster.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	s := session.New(d.Graph, session.Options{Workers: 4, Remote: coord})
	// A join forces shuffles across the peer links, so both workers hold a
	// link each way, with its writer and its router, when shutdown starts.
	if _, err := s.Execute(session.Request{Query: `MATCH (p:Person)-[:knows]->(q:Person) RETURN *`}); err != nil {
		t.Fatal(err)
	}
	awaitJoin(t, "Coordinator.Close", coord.Close)
	for i, w := range workers {
		w.Close()
		awaitJoin(t, fmt.Sprintf("workers[%d].Wait", i), w.Wait)
	}
}

// TestCoordinatorAbortedStartupJoins covers the constructor's error path:
// when a worker dial fails, NewCoordinator closes itself — and Close now
// waits for the heartbeat goroutine, which must therefore already be
// stoppable at that point regardless of how far the dial loop got.
func TestCoordinatorAbortedStartupJoins(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // guarantee the dial is refused

	done := make(chan error, 1)
	go func() {
		_, err := cluster.NewCoordinator([]string{addr}, cluster.Options{Workers: 2})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("NewCoordinator succeeded against a closed listener")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("NewCoordinator hung in its failure path: Close did not join the heartbeat")
	}
}
