package leakcheck

import (
	"os"
	"strings"
	"testing"
	"time"
)

// TestLeaksFindsWhatTheRunLeftOpen starts a goroutine of the module that
// nothing stops and opens a file that nothing closes: both are leaks until
// they end, and then neither is.
func TestLeaksFindsWhatTheRunLeftOpen(t *testing.T) {
	before := take()
	stop := make(chan struct{})
	go func() { <-stop }()
	f, err := os.Open("leakcheck.go")
	if err != nil {
		t.Fatal(err)
	}
	found := leaks(before, time.Now())
	if len(found) != 2 || !strings.Contains(found[0], "leakcheck.go") || !strings.Contains(found[1], "TestLeaksFindsWhatTheRunLeftOpen") {
		t.Errorf("found %d leaks, want the file and the goroutine:\n%s", len(found), strings.Join(found, "\n\n"))
	}
	close(stop)
	f.Close()
	if found := leaks(before, time.Now().Add(wait)); len(found) > 0 {
		t.Errorf("leaks after the goroutine ended and the file closed:\n%s", strings.Join(found, "\n\n"))
	}
}

// TestInModule holds which goroutines are the module's: one running a
// function of it or created by one, and not one of the standard library's.
func TestInModule(t *testing.T) {
	for stack, want := range map[string]bool{
		"goroutine 9 [IO wait]:\ngradoop/internal/cluster.(*Worker).serveControl(0xc0001)\n\t/src/internal/cluster/worker.go:200 +0x1\ncreated by net/http.(*Server).Serve in goroutine 7": true,
		"goroutine 9 [select]:\ngradoop.(*Graph).Match(0xc0001)\n\t/src/graph.go:20 +0x1":                                                                                                  true,
		"goroutine 9 [select]:\nnet/http.(*persistConn).readLoop(0xc0001)\n\t/go/src/net/http/transport.go:2395 +0x1\ncreated by gradoop/internal/server.TestQuery in goroutine 7":         true,
		"goroutine 9 [select]:\nnet/http.(*persistConn).readLoop(0xc0001)\n\t/src/gradoop/transport.go:2395 +0x1\ncreated by net/http.(*Transport).dialConn in goroutine 7":                false,
	} {
		if got := inModule(stack); got != want {
			t.Errorf("inModule = %v, want %v:\n%s", got, want, stack)
		}
	}
}
