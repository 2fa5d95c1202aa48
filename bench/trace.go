package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"gradoop/internal/epgm"
	"gradoop/internal/session"
)

// subset returns the prepared input restricted to the given classes.
func (p *prepared) subset(classes []string) *prepared {
	out := &prepared{ds: p.ds}
	for _, c := range classes {
		for i := range p.reqs {
			if p.reqs[i].class == c {
				out.reqs = append(out.reqs, p.reqs[i])
				out.exps = append(out.exps, p.exps[i])
			}
		}
	}
	return out
}

func (r request) params() map[string]epgm.PropertyValue {
	if r.firstName == "" {
		return nil
	}
	return map[string]epgm.PropertyValue{"firstName": epgm.PVString(r.firstName)}
}

// clusterLeg cold-starts a two-worker cluster, executes the classes on it
// and fills in the cluster layer's metrics from the reports the coordinator
// already returns.
func clusterLeg(p *prepared, ops *opCounter, m metricSet) (time.Duration, error) {
	w, _ := workloadByName("cluster_2w")
	s, err := openSUT(p.ds.dir, w, nil)
	if err != nil {
		return 0, err
	}
	defer s.Close()
	const replays = 3
	var stageWall, overhead, wireKB, skewMax, attempts []float64
	var wire, model float64
	for ci := range p.reqs {
		r := &p.reqs[ci]
		var cw, co, ck, cs []float64
		for i := 0; i < replays; i++ {
			t0 := time.Now()
			resp, err := s.sess.Execute(session.Request{Query: r.query, Params: r.params(), Context: context.Background()})
			elapsed := time.Since(t0)
			if err == nil && resp.Count != p.exps[ci].ref.Count {
				err = fmt.Errorf("count %d, reference %d", resp.Count, p.exps[ci].ref.Count)
			}
			if err == nil && resp.Cluster == nil {
				err = fmt.Errorf("no cluster report")
			}
			if err != nil {
				ops.record(fmt.Errorf("cluster leg, %s: %w", r.class, err))
				continue
			}
			ops.record(nil)
			var sum, slowest time.Duration
			var bytes, skew float64
			for _, st := range resp.Cluster.Stages {
				sum += time.Duration(st.Actual)
				bytes += float64(st.WireBytes)
				skew = max(skew, st.Skew)
				if st.Shuffle {
					wire += float64(st.WireBytes)
					model += float64(st.ModelBytes)
				}
			}
			for _, wr := range resp.Cluster.WorkerReports {
				slowest = max(slowest, time.Duration(wr.WallNs))
			}
			cw, co = append(cw, ms(sum)), append(co, ms(elapsed-slowest))
			ck, cs = append(ck, bytes/1024), append(cs, skew)
			attempts = append(attempts, float64(resp.Cluster.Attempts))
		}
		stageWall, overhead = append(stageWall, median(cw)), append(overhead, median(co))
		wireKB, skewMax = append(wireKB, median(ck)), append(skewMax, median(cs))
	}
	n := len(attempts)
	if n == 0 || model == 0 {
		return 0, fmt.Errorf("cluster leg: no distributed execution succeeded")
	}
	m.set("cluster.stage_wall_ms", mean(stageWall), n)
	m.set("cluster.overhead_ms", mean(overhead), n)
	m.set("cluster.wire_kb_per_req", mean(wireKB), n)
	m.set("cluster.wire_over_model", wire/model, n)
	m.set("cluster.skew_max", mean(skewMax), n)
	m.set("cluster.attempts_per_req", mean(attempts), n)
	m.set("cluster.connect_ms", ms(s.connect), 1)
	m.set("cluster.worker_load_ms", ms(s.workerLoad), 1)
	return s.open, nil
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// gcCPU reads the runtime's own account of CPU seconds: garbage collection
// and total.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// tracedTraffic sends the workload's own traffic and fills in what is
// measured at the client and counted by the session and the runtime while it
// runs. One round of every pair carries the harness's spans and the other
// does not; a round is always the same work, so the ratio of their wall times
// is what the spans cost.
func tracedTraffic(cfg runConfig, s *sut, own *prepared, clients []*client, rec *recorder, ops *opCounter, m metricSet) {
	short := cfg
	short.seconds, short.minRounds = cfg.seconds*0.4, 4
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, cpu0 := gcCPU()
	sm0 := s.sess.Metrics()
	traffic := runRounds(short, own, clients, ops, true)
	sm1 := s.sess.Metrics()
	gc1, cpu1 := gcCPU()
	runtime.ReadMemStats(&ms1)

	n := traffic.requests()
	lat := traffic.latenciesMs(anyClass)
	net := rec.selfOfRoundTrips()
	m.set("client.qps", traffic.qps(), len(traffic.stats))
	m.set("client.latency_p50_ms", median(lat), len(lat))
	m.set("process.cpu_ms_per_req", traffic.cpuMsPerReq(), n)
	m.set("client.net_ms", median(net), len(net))
	m.set("client.latency_p95_ms", percentile(lat, 95), len(lat))
	m.set("client.latency_p99_ms", percentile(lat, 99), len(lat))
	for ci, r := range own.reqs {
		all := traffic.latenciesMs(ofClass(ci))
		m.set("client.p50_ms."+r.class, median(all), len(all))
	}
	var with, without []float64
	for _, st := range traffic.stats {
		if st.Tagged {
			with = append(with, st.WallS)
		} else {
			without = append(without, st.WallS)
		}
	}
	m.set("trace.overhead_ratio", median(with)/median(without), len(with))
	m.set("server.resp_kb_per_req", float64(traffic.bytes)/1024/float64(n), n)
	m.set("session.plan_hit_ratio", ratioOf(sm1.PlanHits-sm0.PlanHits, sm1.PlanMisses-sm0.PlanMisses), n)
	m.set("session.result_hit_ratio", ratioOf(sm1.ResultHits-sm0.ResultHits, sm1.ResultMisses-sm0.ResultMisses), n)
	jobs := float64(max(sm1.Cluster.Jobs-sm0.Cluster.Jobs, 1))
	m.set("session.queue_wait_ms", ms(sm1.Cluster.SlotWait-sm0.Cluster.SlotWait)/jobs, int(jobs))
	m.set("dataflow.stages_per_req", float64(sm1.Cluster.Stages-sm0.Cluster.Stages)/jobs, int(jobs))
	m.set("dataflow.shuffles_per_req", float64(sm1.Cluster.Shuffles-sm0.Cluster.Shuffles)/jobs, int(jobs))
	m.set("dataflow.net_kb_per_req", float64(sm1.Cluster.TotalNet-sm0.Cluster.TotalNet)/1024/jobs, int(jobs))
	m.set("dataflow.skew", skewBetween(sm0.Cluster.CPUElements, sm1.Cluster.CPUElements), int(jobs))
	m.set("process.gc_cycles_per_req", float64(ms1.NumGC-ms0.NumGC)/float64(n), n)
	m.set("process.gc_cpu_fraction", (gc1-gc0)/(cpu1-cpu0), n)
}

// otherClassMedians gives the classes this workload does not send their
// client median too, from three requests each against the same system.
func otherClassMedians(p *prepared, c *client, ops *opCounter, m metricSet) {
	for i := range p.reqs {
		r := &p.reqs[i]
		if _, mine := m["client.p50_ms."+r.class]; mine {
			continue
		}
		var ds []float64
		for k := 0; k < 3; k++ {
			status, d, err := c.post(r, fmt.Sprintf("other.%s.%d", r.class, k))
			if err == nil {
				err = c.checkFast(status, p.exps[i])
			}
			if err != nil {
				ops.record(fmt.Errorf("other classes, %s: %w", r.class, err))
				continue
			}
			ops.record(nil)
			ds = append(ds, ms(d))
		}
		m.set("client.p50_ms."+r.class, median(ds), len(ds))
	}
}

// runTraced is the per-layer run of one workload. It runs in a process of
// its own, after the measured run, never during it.
func runTraced(cfg runConfig, p *prepared, doc *document) error {
	ops := &opCounter{}
	rec := newRecorder()
	m := doc.Metrics
	w := cfg.workload
	own := p.subset(w.classes)

	// The workload's system, with a span around the server's handler. The
	// cold start answers all twelve classes once, fully checked.
	s, first, _, err := coldStart(cfg, p, ops, rec.wrap)
	if err != nil {
		return err
	}
	mainOpen := s.open
	closeMain := sync.OnceFunc(s.Close)
	defer closeMain()
	clients := []*client{first}
	for len(clients) < w.clients {
		clients = append(clients, newClient(s.url))
	}
	defer closeAll(clients)
	for _, c := range clients {
		c.rec = rec
	}

	// The cold start sent classes this workload never sends; warm up again so
	// that its own are the ones the caches hold.
	warmUp(own, clients, ops)

	tracedTraffic(cfg, s, own, clients, rec, ops, m)
	otherClassMedians(p, first, ops, m)

	// The ladder below the client.
	eng, err := loadEngine(p.ds.dir, m)
	if err != nil {
		return err
	}
	l := &ladder{rec: rec, ops: ops, sut: s, eng: eng, classes: own.reqs, exps: own.exps,
		samples: make([]ladderSamples, len(own.reqs))}
	for i := range l.samples {
		l.samples[i].rungs = map[string][]float64{}
	}
	l.run(time.Duration(cfg.seconds * 0.45 * float64(time.Second)))
	closeMain()
	doc.Info = l.metrics(w, m)

	clusterOpen, err := clusterLeg(own, ops, m)
	if err != nil {
		return err
	}
	opens := []float64{ms(mainOpen), ms(clusterOpen)}
	m.set("session.open_ms", median(opens), len(opens), opens...)

	if err := runKernels(cfg.seed, m); err != nil {
		return err
	}

	doc.SpanFile = filepath.Join(cfg.workdir, "out", w.name+".spans.json")
	if err := rec.writeChrome(doc.SpanFile, map[string]string{"workload": w.name, "git_sha": doc.Env.GitSHA}); err != nil {
		return err
	}
	doc.finish(ops)
	return nil
}

func ratioOf(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// skewBetween is the busiest partition's share of the work done between two
// snapshots over the mean share; 1 is perfectly balanced.
func skewBetween(before, after []int64) float64 {
	var total, worst float64
	for i := range after {
		d := float64(after[i])
		if i < len(before) {
			d -= float64(before[i])
		}
		total += d
		worst = max(worst, d)
	}
	if total == 0 {
		return 1
	}
	return worst / (total / float64(len(after)))
}
