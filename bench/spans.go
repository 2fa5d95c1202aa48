package main

import (
	"net/http"
	"strings"
	"sync"
	"time"
)

// benchReqHeader carries the client's request identifier to the span the
// harness records around the server's handler.
const benchReqHeader = "X-Bench-Req"

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the ID of the span that caused this one, or -1.
type span struct {
	Name       string
	Req        string
	ID, Parent int
	Start, End time.Duration // since the recorder's epoch
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps the spans of a traced run in memory until it ends. The
// harness records every span itself, around its calls into the layers'
// exported functions; the program is not instrumented.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	// clientSpan maps a request identifier to the client's span, so that the
	// handler-side span can name its parent.
	clientSpan map[string]int
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), clientSpan: map[string]int{}}
}

func (r *recorder) begin(name, req string, parent int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Req: req, ID: id, Parent: parent, Start: time.Since(r.epoch)})
	return id
}

func (r *recorder) end(id int) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = time.Since(r.epoch)
	return r.spans[id].dur()
}

// timed records a span around f.
func (r *recorder) timed(name, req string, parent int, f func()) time.Duration {
	id := r.begin(name, req, parent)
	f()
	return r.end(id)
}

// beginClient opens the client-side span of a tagged request.
func (r *recorder) beginClient(req string) int {
	id := r.begin("http.roundtrip", req, -1)
	r.mu.Lock()
	r.clientSpan[req] = id
	r.mu.Unlock()
	return id
}

// wrap records a span around the server's handler for every tagged request.
func (r *recorder) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		tag := req.Header.Get(benchReqHeader)
		if tag == "" {
			next.ServeHTTP(w, req)
			return
		}
		r.mu.Lock()
		parent, ok := r.clientSpan[tag]
		r.mu.Unlock()
		if !ok {
			parent = -1
		}
		id := r.begin("server.ServeHTTP", tag, parent)
		next.ServeHTTP(w, req)
		r.end(id)
	})
}

// selfOfRoundTrips returns, for every client span that has a handler-side
// child, the round trip minus the handler: the time spent in the client,
// the sockets and net/http.
func (r *recorder) selfOfRoundTrips() []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == "server.ServeHTTP" && s.Parent >= 0 {
			out = append(out, ms(r.spans[s.Parent].dur()-s.dur()))
		}
	}
	return out
}

// writeChrome writes the spans as a Chrome trace_event document, one lane
// per ladder level (open it in chrome://tracing or Perfetto).
func (r *recorder) writeChrome(path string, meta map[string]string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	lanes := map[string]int{}
	events := make([]event, 0, len(r.spans))
	for _, s := range r.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		lane, ok := lanes[layer]
		if !ok {
			lane = len(lanes) + 1
			lanes[layer] = lane
		}
		events = append(events, event{
			Name: s.Name, Cat: layer, Ph: "X", TS: us(s.Start), Dur: us(s.dur()), PID: 1, TID: lane,
			Args: map[string]any{"req": s.Req, "id": s.ID, "parent": s.Parent},
		})
	}
	return writeJSON(path, map[string]any{"traceEvents": events, "displayTimeUnit": "ms", "metadata": meta})
}
