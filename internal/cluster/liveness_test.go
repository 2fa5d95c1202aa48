package cluster

import (
	"strings"
	"testing"
	"time"

	"gradoop/internal/core"
	"gradoop/internal/epgm"
	"gradoop/internal/session"
	"gradoop/internal/stats"
)

// The tests of this file hold the coordinator live: no two of its locks are
// taken in opposite orders, and none is held while it waits on a peer. Such a
// bug is a hang, so each test ends at a deadline, and on a failure leaves the
// coordinator behind instead of closing it, which would wait on the hang too.

// TestCoordinatorAnswersUnderConcurrentJobs: eight clients run jobs on a
// two-worker cluster at once while a ninth reads the roster, the federated
// metrics and the live count in a loop. Launches, result and done reports,
// telemetry, pongs and reads take the coordinator's and its members' locks in
// every interleaving, and every job and every read ends.
func TestCoordinatorAnswersUnderConcurrentJobs(t *testing.T) {
	const clients, jobs = 8, 20
	g := tinyGraph()
	data := session.NewGraphData(g)
	_, a := serveWorker(t, "w0", data)
	_, b := serveWorker(t, "w1", data)
	coord, err := NewCoordinator([]string{a, b}, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	s := session.New(g, session.Options{Workers: 4, MaxConcurrent: clients, NoResultCache: true, Remote: coord})
	errs := make(chan error, clients)
	for range clients {
		go func() {
			for range jobs {
				if _, err := s.Execute(session.Request{Query: joinQuery}); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	stop, read := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(read)
		for {
			select {
			case <-stop:
				return
			default:
			}
			coord.ClusterWorkers()
			coord.WorkerMetrics()
			coord.LiveWorkers()
		}
	}()
	deadline := time.After(30 * time.Second)
	for range clients {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatalf("%d clients' jobs on two workers did not end in 30 s: the coordinator hangs", clients)
		}
	}
	close(stop)
	select {
	case <-read:
	case <-deadline:
		t.Fatal("the coordinator's readers did not return")
	}
	s.Close()
	coord.Close()
}

// TestStalledMemberIsLostNotWaitedOn: the one worker of a cluster stops
// reading its control connection half way into a job whose frame is larger
// than the socket's buffers can take. The coordinator's write to it blocks,
// and nothing else does: the roster still answers, the heartbeat finds the
// member silent and drops it, and the job ends with an error.
func TestStalledMemberIsLostNotWaitedOn(t *testing.T) {
	g := tinyGraph()
	_, a := serveWorker(t, "w0", session.NewGraphData(g))
	release := make(chan struct{})
	stalled := relay(t, a, func(toWorker bool, typ byte, payload []byte) (byte, []byte) {
		if toWorker && typ == frameStats {
			<-release // the job frame behind the statistics stays unread
		}
		return typ, payload
	})
	t.Cleanup(func() { close(release) })
	coord, err := NewCoordinator([]string{stalled}, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	prep, err := core.PrepareWith(stats.Collect(g), `MATCH (p:Person) WHERE p.firstName = $name RETURN *`, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// 8 MiB of parameter, 11 MiB as JSON: more than the kernel buffers on
	// both ends of a loopback connection hold.
	params := map[string]epgm.PropertyValue{"name": epgm.PVString(strings.Repeat("x", 8<<20))}
	ran := make(chan error, 1)
	go func() {
		_, _, err := coord.ExecuteRemote(g, prep, core.Config{Params: params})
		ran <- err
	}()
	answered := make(chan struct{})
	go func() {
		defer close(answered)
		for coord.LiveWorkers() == 1 {
			coord.ClusterWorkers()
			time.Sleep(10 * time.Millisecond)
		}
	}()
	deadline := time.After(10 * heartbeatTimeout)
	select {
	case err := <-ran:
		if err == nil {
			t.Fatal("the job succeeded on a worker that read none of it")
		}
	case <-deadline:
		t.Fatalf("the job did not end in %v: the coordinator waits on a member that stopped reading", 10*heartbeatTimeout)
	}
	select {
	case <-answered:
	case <-deadline:
		t.Fatal("the roster did not answer while a member stopped reading")
	}
	coord.Close()
}
