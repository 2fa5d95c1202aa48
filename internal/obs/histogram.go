package obs

import (
	"math"
	"math/bits"
	"strconv"
	"strings"
	"sync/atomic"
)

// The histogram is log-linear, the scheme HdrHistogram popularized: values
// below `hsub` land in exact unit-width buckets; above that, every power-of-
// two octave is split into `hsub` linear sub-buckets, so the relative width
// of any bucket is at most 1/hsub (~3.1% for 32 sub-buckets). Quantiles are
// extracted from the full recorded distribution — every observation lands in
// a bucket, nothing is sampled — so the only error is the bucket width, and
// the histogram_test oracle bounds it exactly.
const (
	hsubBits = 5
	hsub     = 1 << hsubBits
	// hbuckets covers the whole non-negative int64 range: hsub exact buckets
	// plus (63-hsubBits) octaves of hsub sub-buckets each.
	hbuckets = (64 - hsubBits) * hsub
)

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	if v < hsub {
		return int(v)
	}
	k := bits.Len64(uint64(v)) - 1 // v's octave; >= hsubBits here
	m := int((uint64(v) >> uint(k-hsubBits)) & (hsub - 1))
	return (k-hsubBits+1)*hsub + m
}

// bucketBounds returns the closed value range [lo, hi] of a bucket.
func bucketBounds(i int) (lo, hi int64) {
	if i < hsub {
		return int64(i), int64(i)
	}
	j := i - hsub
	shift := uint(j / hsub)
	m := int64(j % hsub)
	width := int64(1) << shift
	lo = (hsub + m) * width
	return lo, lo + width - 1
}

// Histogram records a distribution of non-negative int64 observations
// (durations in nanoseconds, byte counts) in log-linear buckets. Observe is
// lock-free and allocation-free; quantile extraction happens on snapshots.
// All methods are nil-safe no-ops on a nil receiver.
type Histogram struct {
	name, help string
	labels     labelPairs
	scale      float64 // exposition multiplier (ScaleNanos for ns → s)

	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [hbuckets]atomic.Int64
}

func newHistogram(name, help string, scale float64) *Histogram {
	if scale == 0 {
		scale = 1
	}
	return &Histogram{name: name, help: help, scale: scale}
}

// NewStandaloneHistogram builds an unregistered histogram for callers that
// need the log-linear distribution machinery (Observe/Quantile/Merge)
// without exposing a metric series — e.g. per-key aggregates whose
// cardinality is unbounded and must never reach the exposition. scale is
// the same exposition multiplier NewHistogram takes; it only matters if
// the histogram is later rendered.
func NewStandaloneHistogram(scale float64) *Histogram {
	return newHistogram("", "", scale)
}

// NewHistogram registers a histogram. scale is the exposition multiplier
// (ScaleNanos for nanosecond observations exposed as seconds; 1 for raw
// units such as bytes). Returns nil on a nil registry.
func (r *Registry) NewHistogram(name, help string, scale float64) *Histogram {
	if r == nil {
		return nil
	}
	h := newHistogram(name, help, scale)
	r.register(h)
	return h
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
	h.buckets[bucketIndex(v)].Add(1)
}

// Count returns the number of observations (0 on a nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Snapshot returns a point-in-time copy of the distribution. Because the
// counters are updated individually, a snapshot taken concurrently with
// observations may be mid-observation by one count; taken at rest it is
// exact.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{}
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n != 0 {
			s.Buckets = append(s.Buckets, BucketCount{Index: i, Count: n})
		}
	}
	return s
}

// BucketCount is one non-empty bucket of a snapshot.
type BucketCount struct {
	Index int
	Count int64
}

// HistogramSnapshot is an immutable copy of a histogram's distribution,
// holding only its non-empty buckets in index order.
type HistogramSnapshot struct {
	Count   int64
	Sum     int64
	Max     int64
	Buckets []BucketCount
}

// Merge accumulates another snapshot into s. Bucket counts, totals and
// counts add; Max takes the maximum. Merging is associative and commutative
// (integer addition bucket-wise), which histogram_test pins.
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) {
	s.Count += o.Count
	s.Sum += o.Sum
	if o.Max > s.Max {
		s.Max = o.Max
	}
	if len(o.Buckets) == 0 {
		return
	}
	merged := make([]BucketCount, 0, len(s.Buckets)+len(o.Buckets))
	i, j := 0, 0
	for i < len(s.Buckets) || j < len(o.Buckets) {
		switch {
		case j >= len(o.Buckets) || (i < len(s.Buckets) && s.Buckets[i].Index < o.Buckets[j].Index):
			merged = append(merged, s.Buckets[i])
			i++
		case i >= len(s.Buckets) || o.Buckets[j].Index < s.Buckets[i].Index:
			merged = append(merged, o.Buckets[j])
			j++
		default:
			merged = append(merged, BucketCount{Index: s.Buckets[i].Index,
				Count: s.Buckets[i].Count + o.Buckets[j].Count})
			i++
			j++
		}
	}
	s.Buckets = merged
}

// Quantile estimates the q-quantile (0 < q <= 1) of the recorded
// distribution using the nearest-rank definition: the value of the
// ceil(q*count)-th smallest observation. For values below 32 the estimate is
// exact; above, it is the midpoint of the rank's bucket, within 1/32 of the
// true value. Returns 0 for an empty distribution.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum int64
	for _, b := range s.Buckets {
		cum += b.Count
		if cum >= rank {
			lo, hi := bucketBounds(b.Index)
			mid := lo + (hi-lo)/2
			if mid > s.Max {
				mid = s.Max
			}
			return mid
		}
	}
	return s.Max
}

func (h *Histogram) metricName() string { return h.name }

func (h *Histogram) expose(sb *strings.Builder) {
	header(sb, h.name, h.help, "summary")
	h.exposeSamples(sb)
}

// exposeQuantiles is the fixed quantile set every histogram exposes.
var exposeQuantiles = []float64{0.5, 0.95, 0.99}

// exposeSamples writes the histogram's summary samples: one quantile sample
// per exposed quantile plus the _sum and _count series, all carrying the
// histogram's labels.
func (h *Histogram) exposeSamples(sb *strings.Builder) {
	s := h.Snapshot()
	for _, q := range exposeQuantiles {
		labels := append(labelPairs{}, h.labels...)
		labels = append(labels, labelPair{"quantile", strconv.FormatFloat(q, 'g', -1, 64)})
		sample(sb, h.name, labels, float64(s.Quantile(q))*h.scale)
	}
	sample(sb, h.name+"_sum", h.labels, float64(s.Sum)*h.scale)
	sample(sb, h.name+"_count", h.labels, float64(s.Count))
}

// labelPair is one label name/value pair of a sample.
type labelPair struct {
	name, value string
}

type labelPairs []labelPair

// header writes the # HELP / # TYPE comment block of a metric family.
func header(sb *strings.Builder, name, help, typ string) {
	if help != "" {
		sb.WriteString("# HELP ")
		sb.WriteString(name)
		sb.WriteByte(' ')
		sb.WriteString(escapeHelp(help))
		sb.WriteByte('\n')
	}
	sb.WriteString("# TYPE ")
	sb.WriteString(name)
	sb.WriteByte(' ')
	sb.WriteString(typ)
	sb.WriteByte('\n')
}

// sample writes one exposition sample line: name{labels} value.
func sample(sb *strings.Builder, name string, labels labelPairs, v float64) {
	sb.WriteString(name)
	if len(labels) > 0 {
		sb.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(l.name)
			sb.WriteString(`="`)
			sb.WriteString(escapeLabel(l.value))
			sb.WriteByte('"')
		}
		sb.WriteByte('}')
	}
	sb.WriteByte(' ')
	sb.WriteString(formatValue(v))
	sb.WriteByte('\n')
}

// formatValue renders a sample value the way Prometheus expects: shortest
// round-trip float, with NaN and infinities spelled out.
func formatValue(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote and newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// escapeHelp escapes a help string: backslash and newline.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}
