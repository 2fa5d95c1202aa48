package obs

import (
	"sort"
	"strconv"
	"strings"

	"gradoop/internal/field"
)

// Registry snapshots and the federated exposition. A worker process cannot
// be scraped directly — it speaks only the cluster's frame protocol — so it
// ships a Snapshot of its registry inside each telemetry bundle, and the
// coordinator's server renders the latest snapshot of every roster member
// as one per-worker-labeled section of its own /metrics exposition: a
// single scrape covers the whole cluster.
//
// Counters and sums in a snapshot merge associatively (they are plain
// additions), so downstream consumers can aggregate across workers;
// histogram quantiles are extracted per worker before shipping, which is
// deliberate — quantiles of a merged population hide exactly the straggler
// asymmetry the per-worker labels exist to show.

// MetricSample is one exposed sample of a family: an optional name suffix
// ("_sum", "_count"), the sample's label pairs flattened as
// name,value,name,value..., and the exposition value (already scaled).
type MetricSample struct {
	Suffix string
	Labels []string
	Value  float64
}

// MetricFamily is one instrument's exposed state: its name, help, type
// ("counter", "gauge" or "summary") and samples.
type MetricFamily struct {
	Name    string
	Help    string
	Type    string
	Samples []MetricSample
}

// Snapshot is a point-in-time copy of every instrument in a registry, in
// exposition (name-sorted) order.
type Snapshot struct {
	Families []MetricFamily
}

// Snapshot captures the registry's current state. A nil registry yields an
// empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	instruments := append([]instrument(nil), r.instruments...)
	r.mu.Unlock()
	sort.SliceStable(instruments, func(i, j int) bool {
		return instruments[i].metricName() < instruments[j].metricName()
	})
	for _, in := range instruments {
		s.Families = append(s.Families, familySnapshot(in))
	}
	return s
}

// familySnapshot captures one instrument's exposed state, mirroring its
// expose method sample for sample.
func familySnapshot(in instrument) MetricFamily {
	switch in := in.(type) {
	case *Counter:
		return MetricFamily{Name: in.name, Help: in.help, Type: "counter",
			Samples: []MetricSample{{Value: float64(in.v.Load())}}}
	case *Gauge:
		return MetricFamily{Name: in.name, Help: in.help, Type: "gauge",
			Samples: []MetricSample{{Value: in.fn()}}}
	case *CounterFunc:
		return MetricFamily{Name: in.name, Help: in.help, Type: "counter",
			Samples: []MetricSample{{Value: in.fn()}}}
	case *CounterVec:
		f := MetricFamily{Name: in.name, Help: in.help, Type: "counter"}
		in.mu.RLock()
		defer in.mu.RUnlock()
		for _, value := range sortedKeys(in.children) {
			f.Samples = append(f.Samples, MetricSample{
				Labels: []string{in.label, value},
				Value:  float64(in.children[value].v.Load()),
			})
		}
		return f
	case *CounterVec2:
		f := MetricFamily{Name: in.name, Help: in.help, Type: "counter"}
		in.mu.RLock()
		defer in.mu.RUnlock()
		keys := make([][2]string, 0, len(in.children))
		for k := range in.children {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i][0] != keys[j][0] {
				return keys[i][0] < keys[j][0]
			}
			return keys[i][1] < keys[j][1]
		})
		for _, k := range keys {
			f.Samples = append(f.Samples, MetricSample{
				Labels: []string{in.label1, k[0], in.label2, k[1]},
				Value:  float64(in.children[k].v.Load()),
			})
		}
		return f
	case *Histogram:
		return MetricFamily{Name: in.name, Help: in.help, Type: "summary",
			Samples: in.sampleSnapshots(nil)}
	case *HistogramVec:
		f := MetricFamily{Name: in.name, Help: in.help, Type: "summary"}
		in.mu.RLock()
		defer in.mu.RUnlock()
		for _, value := range sortedKeys(in.children) {
			f.Samples = append(f.Samples,
				in.children[value].sampleSnapshots([]string{in.label, value})...)
		}
		return f
	default:
		return MetricFamily{Name: in.metricName(), Type: "untyped"}
	}
}

// sampleSnapshots mirrors exposeSamples: one quantile sample per exposed
// quantile plus _sum and _count, all carrying the given base labels.
func (h *Histogram) sampleSnapshots(baseLabels []string) []MetricSample {
	s := h.Snapshot()
	out := make([]MetricSample, 0, len(exposeQuantiles)+2)
	for _, q := range exposeQuantiles {
		labels := append(append([]string(nil), baseLabels...),
			"quantile", strconv.FormatFloat(q, 'g', -1, 64))
		out = append(out, MetricSample{Labels: labels,
			Value: float64(s.Quantile(q)) * h.scale})
	}
	out = append(out, MetricSample{Suffix: "_sum", Labels: baseLabels,
		Value: float64(s.Sum) * h.scale})
	out = append(out, MetricSample{Suffix: "_count", Labels: baseLabels,
		Value: float64(s.Count)})
	return out
}

// Layout is the snapshot's wire form: a count-prefixed family list. Each
// type names its fields once, in wire order, and field.Codec walks the list
// in both directions; a float64 travels as its IEEE-754 bits.
func (s *Snapshot) Layout(c *field.Codec) {
	// A family is at least its three string lengths and its sample count.
	field.Slice(c, &s.Families, 16, (*MetricFamily).layout)
}

func (f *MetricFamily) layout(c *field.Codec) {
	c.String(&f.Name)
	c.String(&f.Help)
	c.String(&f.Type)
	// A sample is at least its suffix length, label count and value.
	field.Slice(c, &f.Samples, 16, (*MetricSample).layout)
}

func (s *MetricSample) layout(c *field.Codec) {
	c.String(&s.Suffix)
	field.Slice(c, &s.Labels, 4, func(l *string, c *field.Codec) { c.String(l) })
	c.F64(&s.Value)
}

// FederatedSnapshot is one member's labeled snapshot in a federated view.
type FederatedSnapshot struct {
	Label string // the member's identity (worker node ID)
	Snap  *Snapshot
}

// WriteFederated renders the members' snapshots as one exposition section:
// every family is re-rooted under prefix — a name starting with "gradoop_"
// keeps the remainder, anything else is prefixed whole — and every sample
// gains labelName="<member label>" as its first label. Families present on
// several members share one HELP/TYPE header (the first member's help
// wins), so one scrape of the coordinator exposes per-worker-labeled
// series for the entire roster.
func WriteFederated(sb *strings.Builder, prefix, labelName string, members []FederatedSnapshot) {
	type familyText struct {
		help, typ string
		order     int
	}
	families := map[string]*familyText{}
	var order []string
	for _, m := range members {
		if m.Snap == nil {
			continue
		}
		for i := range m.Snap.Families {
			f := &m.Snap.Families[i]
			name := federatedName(prefix, f.Name)
			if _, ok := families[name]; !ok {
				families[name] = &familyText{help: f.Help, typ: f.Type, order: len(order)}
				order = append(order, name)
			}
		}
	}
	sort.Strings(order)
	for _, name := range order {
		ft := families[name]
		header(sb, name, ft.help, ft.typ)
		for _, m := range members {
			if m.Snap == nil {
				continue
			}
			for i := range m.Snap.Families {
				f := &m.Snap.Families[i]
				if federatedName(prefix, f.Name) != name {
					continue
				}
				for j := range f.Samples {
					smp := &f.Samples[j]
					labels := labelPairs{{labelName, m.Label}}
					for k := 0; k+1 < len(smp.Labels); k += 2 {
						labels = append(labels, labelPair{smp.Labels[k], smp.Labels[k+1]})
					}
					sample(sb, name+smp.Suffix, labels, smp.Value)
				}
			}
		}
	}
}

// federatedName re-roots a member's family name under the federation
// prefix: gradoop_stage_duration_seconds federated under gradoop_cluster_
// becomes gradoop_cluster_stage_duration_seconds.
func federatedName(prefix, name string) string {
	return prefix + strings.TrimPrefix(name, "gradoop_")
}
