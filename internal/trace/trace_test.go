package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestCollectorSpansAndAttribution(t *testing.T) {
	c := NewCollector()
	parent, child := "parent-token", "child-token"

	c.pushOp(parent, "Join")
	// Child evaluated inside the parent's wall-clock window but in its own
	// scope: its stage must be attributed to the child, not the parent.
	c.pushOp(child, "Leaf")
	c.BeginStage(1, "FlatMap", false, 2)
	c.RowsIn(0, 10)
	c.RowsOut(0, 5)
	c.RowsIn(1, 20)
	c.RowsOut(1, 15)
	c.CPU(0, 10)
	c.CPU(1, 20)
	c.popOp(child, 20)

	c.BeginStage(2, "Shuffle", true, 2)
	c.Net(0, 100)
	c.Net(1, 300)
	c.popOp(parent, 7)
	c.Finish()

	spans := c.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	s1, s2 := spans[0], spans[1]
	if s1.Op != "Leaf" || s1.Kind != "FlatMap" || s1.Shuffle {
		t.Errorf("span 1 misattributed: op=%q kind=%q shuffle=%v", s1.Op, s1.Kind, s1.Shuffle)
	}
	if s2.Op != "Join" || !s2.Shuffle {
		t.Errorf("span 2 misattributed: op=%q shuffle=%v", s2.Op, s2.Shuffle)
	}
	if in, out := s1.Rows(); in != 30 || out != 20 {
		t.Errorf("span 1 rows = %d in / %d out, want 30/20", in, out)
	}
	if s1.End < s1.Start || s2.Start < s1.End {
		t.Errorf("span times not monotone: s1=[%v,%v] s2 starts %v", s1.Start, s1.End, s2.Start)
	}

	leaf, ok := c.Op(child)
	if !ok {
		t.Fatal("child operator not recorded")
	}
	if leaf.Rows != 20 || leaf.Evaluations != 1 {
		t.Errorf("leaf stats = %+v, want rows=20 evaluations=1", leaf)
	}
	if len(leaf.Stages) != 1 || leaf.Stages[0] != 1 {
		t.Errorf("leaf stages = %v, want [1]", leaf.Stages)
	}
	join, _ := c.Op(parent)
	if len(join.Stages) != 1 || join.Stages[0] != 2 {
		t.Errorf("join stages = %v, want [2]", join.Stages)
	}
	if ops := c.Ops(); len(ops) != 2 || ops[0].Label != "Join" || ops[1].Label != "Leaf" {
		t.Errorf("Ops() = %+v, want [Join Leaf] in first-evaluation order", ops)
	}
}

func TestRetriedPartitionOverwritesRows(t *testing.T) {
	c := NewCollector()
	c.BeginStage(1, "FlatMap", false, 1)
	c.RowsIn(0, 10)
	c.RowsOut(0, 4) // partial output of a failed attempt
	c.Retry(1, 0, 5*time.Millisecond)
	c.RowsIn(0, 10)
	c.RowsOut(0, 8) // the successful re-execution
	c.Finish()

	s := c.Spans()[0]
	if in, out := s.Rows(); in != 10 || out != 8 {
		t.Errorf("rows after retry = %d/%d, want 10/8 (no double count)", in, out)
	}
	if s.Retries() != 1 {
		t.Errorf("retries = %d, want 1", s.Retries())
	}
	if s.Parts[0].Recovery != 5*time.Millisecond {
		t.Errorf("recovery = %v, want 5ms", s.Parts[0].Recovery)
	}
}

func TestSpanSimTime(t *testing.T) {
	s := Span{Parts: []PartStats{
		{CPUElements: 100, NetBytes: 10},
		{CPUElements: 50, NetBytes: 1000, Recovery: time.Millisecond},
	}}
	// worst partition: 50*1µs + 1000*1µs + 1ms = 2.05ms; + 1ms overhead
	got := s.SimTime(CostModel{CPUPerElement: time.Microsecond, NetPerByte: time.Microsecond, StageOverhead: time.Millisecond})
	want := 50*time.Microsecond + 1000*time.Microsecond + time.Millisecond + time.Millisecond
	if got != want {
		t.Errorf("SimTime = %v, want %v", got, want)
	}
}

func TestUnbalancedPopIsDropped(t *testing.T) {
	c := NewCollector()
	c.popOp("never-pushed", 3) // must not panic or corrupt the stack
	c.pushOp("a", "A")
	c.popOp("b", 1) // mismatched token: dropped
	c.popOp("a", 2)
	st, ok := c.Op("a")
	if !ok || st.Rows != 2 {
		t.Errorf("op a = %+v ok=%v, want rows=2", st, ok)
	}
}

// TestInOpClosesItsScopeOnPanic: the one way into an operator scope pops its
// own frame on every way out, so a stage traced after a body panicked is not
// attributed to that operator.
func TestInOpClosesItsScopeOnPanic(t *testing.T) {
	c := NewCollector()
	func() {
		defer func() { _ = recover() }()
		c.InOp("a", "A", func() int64 { panic("eval failed") })
	}()
	c.InOp("b", "B", func() int64 {
		c.BeginStage(1, "FlatMap", false, 1)
		return 3
	})
	c.BeginStage(2, "Union", false, 1)
	c.Finish()
	spans := c.Spans()
	if spans[0].Op != "B" || spans[1].Op != "" {
		t.Errorf("stages attributed to %q and %q, want B and none", spans[0].Op, spans[1].Op)
	}
	if a, _ := c.Op("a"); a.Evaluations != 1 || a.Rows != 0 {
		t.Errorf("op a = %+v, want one evaluation of 0 rows", a)
	}
	if b, _ := c.Op("b"); b.Rows != 3 {
		t.Errorf("op b rows = %d, want 3", b.Rows)
	}
}

func TestChromeTraceExport(t *testing.T) {
	c := NewCollector()
	c.BeginStage(1, "FlatMap", false, 2)
	c.Attempt(1, 0, 0, time.Now(), time.Now().Add(time.Millisecond), false)
	c.Attempt(1, 1, 0, time.Now(), time.Now().Add(time.Millisecond), true)
	c.Attempt(1, 1, 1, time.Now(), time.Now().Add(time.Millisecond), false)
	c.Finish()

	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc ChromeTrace
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var stages, attempts, failed int
	for _, e := range doc.TraceEvents {
		switch e.Cat {
		case "stage":
			stages++
			if e.Dur < 1 {
				t.Errorf("stage event duration %dµs, want ≥1", e.Dur)
			}
		case "attempt":
			attempts++
			if strings.Contains(e.Name, "worker failed") {
				failed++
			}
		}
	}
	if stages != 1 || attempts != 3 || failed != 1 {
		t.Errorf("got %d stage / %d attempt / %d failed events, want 1/3/1", stages, attempts, failed)
	}
}
