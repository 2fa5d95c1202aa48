package trace

import "gradoop/internal/field"

// Span wire layout. Workers ship their per-job span set inside the cluster's
// done report and the coordinator merges the reports' spans into one
// cluster-wide timeline. Each type below names its fields once, in wire
// order; field.Codec walks that list in both directions.
//
// Span offsets are time.Durations from the collector epoch (the job start
// on the recording process), so encoded spans are already rebased: two
// processes' spans align on "time since my job began" without trusting
// either machine's wall clock.

// LayoutSpans is a count-prefixed span list.
func LayoutSpans(c *field.Codec, spans *[]Span) {
	// A span is at least its scalars, two string lengths and two list counts.
	field.Slice(c, spans, 8+4+4+1+4+8+8+4+4, (*Span).layout)
}

func (s *Span) layout(c *field.Codec) {
	c.I64(&s.Stage)
	c.String(&s.Op)
	c.String(&s.Kind)
	c.Bool(&s.Shuffle)
	c.Int32(&s.Iteration)
	c.Dur(&s.Start)
	c.Dur(&s.End)
	field.Slice(c, &s.Parts, 8*8, (*PartStats).layout)
	field.Slice(c, &s.Attempts, 4+4+8+8+1, (*Attempt).layout)
}

func (p *PartStats) layout(c *field.Codec) {
	c.I64(&p.RowsIn)
	c.I64(&p.RowsOut)
	c.I64(&p.CPUElements)
	c.I64(&p.NetBytes)
	c.I64(&p.SpillBytes)
	c.I64(&p.MemBytes)
	c.Dur(&p.Recovery)
	c.I64(&p.Retries)
}

func (a *Attempt) layout(c *field.Codec) {
	c.Int32(&a.Part)
	c.Int32(&a.N)
	c.Dur(&a.Start)
	c.Dur(&a.End)
	c.Bool(&a.Failed)
}
