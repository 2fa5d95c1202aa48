package operators

import (
	"testing"

	"gradoop/internal/dataflow"
	"gradoop/internal/embedding"
	"gradoop/internal/epgm"
	"gradoop/internal/trace"
)

// panicOp is a minimal Operator for exercising traced directly.
type panicOp struct{}

func (panicOp) Evaluate(*Run) *dataflow.Dataset[embedding.Embedding] { panic("unused") }
func (panicOp) Meta() *embedding.Meta                                { return nil }
func (panicOp) Description() string                                  { return "PanicOp" }
func (panicOp) Children() []Operator                                 { return nil }
func (panicOp) Selective() bool                                      { return false }

// TestTracedClosesScopeOnPanic: traced's operator scope (trace.Collector.InOp,
// which defers its own pop) closes when eval panics, so the frame does not
// leak. A leaked frame would attribute every stage
// traced afterwards to the panicked operator.
func TestTracedClosesScopeOnPanic(t *testing.T) {
	c := trace.NewCollector()
	env := dataflow.NewEnv(dataflow.DefaultConfig(1))
	env.SetTracer(c)

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("eval panic did not propagate")
			}
		}()
		traced(panicOp{}, plainRun(dataflow.Empty[epgm.Vertex](env), nil), func() *dataflow.Dataset[embedding.Embedding] {
			panic("eval failure")
		})
	}()

	// With the scope closed, a stage traced after the panic belongs to no
	// operator; with a leaked frame it would read "PanicOp".
	c.BeginStage(1, "FlatMap", false, 1)
	spans := c.Spans()
	if len(spans) != 1 {
		t.Fatalf("want 1 span, got %d", len(spans))
	}
	if spans[0].Op != "" {
		t.Fatalf("stage after panic attributed to leaked operator scope %q", spans[0].Op)
	}

	// The panicked evaluation itself is still recorded (rows 0).
	st, ok := c.Op(panicOp{})
	if !ok {
		t.Fatal("panicked operator left no stats")
	}
	if st.Evaluations != 1 || st.Rows != 0 {
		t.Fatalf("want 1 evaluation with 0 rows, got %+v", st)
	}
}
