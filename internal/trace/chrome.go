package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// The Chrome trace_event format (also read by Perfetto and chrome://tracing):
// a JSON object with a traceEvents array of metadata ("ph":"M") and complete
// ("ph":"X") events. Timestamps and durations are in microseconds. The
// export lays the job out as one process with a driver track (thread 0)
// holding one event per stage and one track per worker (thread p+1) holding
// one event per partition execution attempt, so skew, retries and idle
// workers are visible at a glance.

// ChromeEvent is one entry of the traceEvents array.
type ChromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTrace is the top-level trace_event JSON document. Metadata carries
// document-level context (the cluster export stores the trace ID there);
// the single-process export leaves it empty.
type ChromeTrace struct {
	TraceEvents     []ChromeEvent     `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	Metadata        map[string]string `json:"metadata,omitempty"`
}

// micros converts a span offset to trace microseconds; call sites clamp
// durations to ≥1µs so sub-microsecond stages stay visible.
func micros(d int64) int64 { return d / 1000 }

func spanName(s *Span) string {
	if s.Op != "" {
		return s.Op
	}
	return s.Kind
}

// ChromeTrace renders the recorded spans as a trace_event document.
func (c *Collector) ChromeTrace() ChromeTrace {
	spans := c.Spans()
	events := []ChromeEvent{
		{Name: "process_name", Ph: "M", PID: 0, TID: 0,
			Args: map[string]any{"name": "gradoop dataflow job"}},
		{Name: "thread_name", Ph: "M", PID: 0, TID: 0,
			Args: map[string]any{"name": "driver (stages)"}},
	}
	workers := 0
	for i := range spans {
		if n := len(spans[i].Parts); n > workers {
			workers = n
		}
	}
	for w := 0; w < workers; w++ {
		events = append(events, ChromeEvent{Name: "thread_name", Ph: "M", PID: 0, TID: w + 1,
			Args: map[string]any{"name": fmt.Sprintf("worker %d", w)}})
	}
	events = appendSpanEvents(events, 0, spans)
	return ChromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"}
}

// appendSpanEvents emits the span set's trace events into one process lane:
// one complete event per stage on the driver thread (tid 0) and one per
// partition execution attempt on the partition's thread (tid part+1).
func appendSpanEvents(events []ChromeEvent, pid int, spans []Span) []ChromeEvent {
	for i := range spans {
		s := &spans[i]
		rowsIn, rowsOut := s.Rows()
		var net, spill int64
		for _, p := range s.Parts {
			net += p.NetBytes
			spill += p.SpillBytes
		}
		dur := micros(int64(s.End - s.Start))
		if dur < 1 {
			dur = 1
		}
		args := map[string]any{
			"stage":      s.Stage,
			"kind":       s.Kind,
			"shuffle":    s.Shuffle,
			"rowsIn":     rowsIn,
			"rowsOut":    rowsOut,
			"netBytes":   net,
			"spillBytes": spill,
			"retries":    s.Retries(),
		}
		if s.Iteration > 0 {
			args["iteration"] = s.Iteration
		}
		events = append(events, ChromeEvent{
			Name: spanName(s), Cat: "stage", Ph: "X",
			TS: micros(int64(s.Start)), Dur: dur, PID: pid, TID: 0, Args: args,
		})
		for _, a := range s.Attempts {
			name := spanName(s)
			switch {
			case a.Failed:
				name = fmt.Sprintf("%s [attempt %d: worker failed]", name, a.N)
			case a.N > 0:
				name = fmt.Sprintf("%s [retry %d]", name, a.N)
			}
			adur := micros(int64(a.End - a.Start))
			if adur < 1 {
				adur = 1
			}
			events = append(events, ChromeEvent{
				Name: name, Cat: "attempt", Ph: "X",
				TS: micros(int64(a.Start)), Dur: adur, PID: pid, TID: a.Part + 1,
				Args: map[string]any{
					"stage":   s.Stage,
					"attempt": a.N,
					"failed":  a.Failed,
				},
			})
		}
	}
	return events
}

// WorkerTrace is one worker process's contribution to a merged cluster
// trace: its node name and the spans its done report shipped.
type WorkerTrace struct {
	Node  string
	Spans []Span
}

// ClusterChromeTrace merges a distributed job into one trace_event
// document: process 0 is the coordinator lane (its attempt and assembly
// spans), and each worker gets its own process lane with the usual driver
// and per-partition threads. Every process's span offsets are relative to
// that process's own job start — the workers ship rebased times, so lanes
// align on "time since the job began" without trusting any machine's wall
// clock. The trace ID binds the document to the job's logs and records.
func ClusterChromeTrace(traceID string, coordinator []Span, workers []WorkerTrace) ChromeTrace {
	events := []ChromeEvent{
		{Name: "process_name", Ph: "M", PID: 0, TID: 0,
			Args: map[string]any{"name": "coordinator"}},
		{Name: "thread_name", Ph: "M", PID: 0, TID: 0,
			Args: map[string]any{"name": "driver (attempts)"}},
	}
	events = appendSpanEvents(events, 0, coordinator)
	for i := range workers {
		w := &workers[i]
		pid := i + 1
		events = append(events, ChromeEvent{Name: "process_name", Ph: "M", PID: pid, TID: 0,
			Args: map[string]any{"name": fmt.Sprintf("worker %s", w.Node)}})
		events = append(events, ChromeEvent{Name: "thread_name", Ph: "M", PID: pid, TID: 0,
			Args: map[string]any{"name": "driver (stages)"}})
		parts := 0
		for j := range w.Spans {
			if n := len(w.Spans[j].Parts); n > parts {
				parts = n
			}
		}
		for p := 0; p < parts; p++ {
			events = append(events, ChromeEvent{Name: "thread_name", Ph: "M", PID: pid, TID: p + 1,
				Args: map[string]any{"name": fmt.Sprintf("partition %d", p)}})
		}
		events = appendSpanEvents(events, pid, w.Spans)
	}
	return ChromeTrace{
		TraceEvents:     events,
		DisplayTimeUnit: "ms",
		Metadata:        map[string]string{"traceId": traceID},
	}
}

// WriteChromeTrace writes the trace_event JSON document to w.
func (c *Collector) WriteChromeTrace(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(c.ChromeTrace())
}
