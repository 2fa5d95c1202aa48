// Package leakcheck fails a test run that leaves something running or open:
// a goroutine of this module, or a file descriptor opened during the run.
//
// Main wraps a package's whole run (its TestMain) and Check one test. Both
// snapshot what exists first, and when the run ends wait a bounded time for
// everything started since to end before they report it. A goroutine counts
// when a frame of its stack, or the frame that created it, is in module
// gradoop; the standard library's own goroutines (the HTTP client's
// connection loops, the testing framework's) do not. A descriptor counts
// when /proc/self/fd lists it with a target it did not have before, except
// the runtime netpoller's epoll, eventfd and pipe descriptors, which live as
// long as the process. Where /proc/self/fd does not exist descriptors are
// not checked.
//
// A file or connection nothing closes is closed by its finalizer at the next
// garbage collection, which would hide it from a check that comes later. So
// Main parks the runtime's one finalizer goroutine for the package's run, and
// no finalizer runs until the check is done.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// wait bounds how long a run's goroutines and descriptors get to end after
// it: a connection handler sees its peer's close, a timer its stop.
const wait = 5 * time.Second

// Main runs a package's tests and exits, with a failure if they passed and
// left a leak behind. Use it as the package's TestMain:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
func Main(m *testing.M) {
	holdFinalizers()
	before := take()
	code := m.Run()
	if code == 0 {
		if found := leaks(before, time.Now().Add(wait)); len(found) > 0 {
			fmt.Fprintf(os.Stderr, "leakcheck: the package's tests left %d leaks behind:\n\n%s\n", len(found), strings.Join(found, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// Check fails t if, once t and its cleanups have finished, a goroutine or
// descriptor it started is still there. Call it first in the test, so that
// its cleanup runs after every other. It sees an unclosed file or connection
// for certain only in a package whose TestMain is Main.
func Check(t testing.TB) {
	t.Helper()
	before := take()
	t.Cleanup(func() {
		for _, l := range leaks(before, time.Now().Add(wait)) {
			t.Errorf("leakcheck: %s", l)
		}
	})
}

// holdFinalizers parks the finalizer goroutine, for the rest of the process,
// in a finalizer that never returns. It gives up after a second, leaving
// finalizers to run.
func holdFinalizers() {
	parked := make(chan struct{})
	runtime.SetFinalizer(&struct{ parked chan struct{} }{parked}, func(any) {
		close(parked)
		select {}
	})
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
		runtime.GC()
		select {
		case <-parked:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
}

type snapshot struct {
	goroutines map[string]string // id -> stack
	fds        map[string]string // number -> link target
}

func take() snapshot {
	return snapshot{goroutines: goroutines(), fds: fds()}
}

// leaks polls until nothing started since before is left, or the deadline
// passes, and describes what is left.
func leaks(before snapshot, deadline time.Time) []string {
	var found []string
	for ; ; time.Sleep(10 * time.Millisecond) {
		found = found[:0]
		for id, stack := range goroutines() {
			if _, ok := before.goroutines[id]; !ok && inModule(stack) {
				found = append(found, "goroutine still running:\n"+stack)
			}
		}
		for fd, target := range fds() {
			if before.fds[fd] != target && !runtimeFD(target) {
				found = append(found, fmt.Sprintf("descriptor %s (%s) opened and still open", fd, target))
			}
		}
		if len(found) == 0 || time.Now().After(deadline) {
			slices.Sort(found)
			return found
		}
	}
}

// goroutines returns the stack of every goroutine but the caller's, by id.
func goroutines() map[string]string {
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	for ; n == len(buf); n = runtime.Stack(buf, true) {
		buf = make([]byte, 2*len(buf))
	}
	stacks := strings.Split(strings.TrimSpace(string(buf[:n])), "\n\n")
	all := make(map[string]string, len(stacks))
	for _, stack := range stacks[1:] { // the first is the caller's
		if id, _, ok := strings.Cut(strings.TrimPrefix(stack, "goroutine "), " "); ok {
			all[id] = stack
		}
	}
	return all
}

// inModule reports whether a frame of stack, or the frame that created it,
// is a function of module gradoop.
func inModule(stack string) bool {
	for _, line := range strings.Split(stack, "\n") {
		line = strings.TrimPrefix(line, "created by ")
		if strings.HasPrefix(line, "gradoop/") || strings.HasPrefix(line, "gradoop.") {
			return true
		}
	}
	return false
}

// fds returns the process's open descriptors and their link targets, or nil
// where /proc/self/fd does not exist.
func fds() map[string]string {
	dir, err := os.Open("/proc/self/fd")
	if err != nil {
		return nil
	}
	defer dir.Close()
	names, _ := dir.Readdirnames(-1)
	self := strconv.Itoa(int(dir.Fd()))
	all := make(map[string]string, len(names))
	for _, name := range names {
		if target, err := os.Readlink("/proc/self/fd/" + name); err == nil && name != self {
			all[name] = target
		}
	}
	return all
}

// runtimeFD reports whether target is one of the netpoller's descriptors.
func runtimeFD(target string) bool {
	return target == "anon_inode:[eventpoll]" || target == "anon_inode:[eventfd]" || strings.HasPrefix(target, "pipe:")
}
