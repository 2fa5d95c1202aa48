package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gradoop/internal/core"
)

// runConfig is everything that decides what one workload process does.
type runConfig struct {
	workload workload
	// seed orders the requests; dataSeed picks the dataset.
	seed     int64
	dataSeed int64
	sf       float64
	seconds  float64
	// cycles is the number of cold starts; minRounds the fewest timed
	// rounds whatever seconds says.
	cycles    int
	minRounds int
	workdir   string
	// fault makes the run go wrong on purpose, to test the checker; only
	// the tests set it. "corrupt-ref" spoils one reference, "non-200" makes
	// the server side answer 503 to every fifth request.
	fault string
}

// prepared is the input of a run: dataset, distinct requests and what each
// must answer.
type prepared struct {
	ds   *dataset
	reqs []request
	exps []*expectation
}

// prepare generates the dataset under the work directory and computes the
// references. The caller removes p.ds.dir.
func prepare(cfg runConfig, classes []string) (_ *prepared, err error) {
	dir, err := os.MkdirTemp(cfg.workdir, "data-")
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			os.RemoveAll(dir)
		}
	}()
	ds, err := makeDataset(dir, cfg.dataSeed, cfg.sf)
	if err != nil {
		return nil, err
	}
	p := &prepared{ds: ds}
	if p.reqs, err = newRequests(classes, ds.Names); err != nil {
		return nil, err
	}
	for i, r := range p.reqs {
		ref, err := computeReference(ds.graph, r)
		if err != nil {
			return nil, err
		}
		if cfg.fault == "corrupt-ref" && i == 0 {
			ref.RowsHash++
		}
		p.exps = append(p.exps, &expectation{ref: ref})
	}
	// The generated graph has served its purpose; the system under test
	// reads the CSV files. core.Execute memoised its statistics, which would
	// keep it reachable.
	core.DropGraphStats(ds.graph)
	ds.graph = nil
	return p, nil
}

// faultyHandler answers 503 to every fifth request, for the checker test.
func faultyHandler(next http.Handler) http.Handler {
	var n atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)%5 == 0 {
			http.Error(w, "forced failure", http.StatusServiceUnavailable)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// opCounter counts verified operations of every phase.
type opCounter struct {
	attempted, failed int
	firstErr          error
}

func (o *opCounter) record(err error) {
	if err != nil {
		o.add(0, 1, err)
	} else {
		o.add(1, 0, nil)
	}
}

// add counts ok verified operations and failed ones; err describes the
// failures.
func (o *opCounter) add(ok, failed int, err error) {
	o.attempted += ok + failed
	o.failed += failed
	if failed > 0 && o.firstErr == nil {
		o.firstErr = err
	}
}

// coldStart opens the system and answers every distinct request once, each
// fully decoded and compared with its reference. The returned duration is
// the cycle's set-up time: from nothing to every request answered.
func coldStart(cfg runConfig, p *prepared, ops *opCounter, wrap func(http.Handler) http.Handler) (*sut, *client, time.Duration, error) {
	if cfg.fault == "non-200" {
		wrap = faultyHandler
	}
	t0 := time.Now()
	s, err := openSUT(p.ds.dir, cfg.workload, wrap)
	if err != nil {
		return nil, nil, 0, err
	}
	c := newClient(s.url)
	verifyAll("cold start", p, c, ops)
	return s, c, time.Since(t0), nil
}

// sample is the latency of one verified request of the timed phase.
type sample struct {
	class int
	d     time.Duration
}

// roundStat is one round of the timed phase.
type roundStat struct {
	OK     int     `json:"ok"`
	Failed int     `json:"failed"`
	WallS  float64 `json:"wall_s"`
	// The process's CPU time and allocations during the round, and the
	// high-water mark of its resident set, reset when the round began.
	CPUMs      float64 `json:"cpu_ms"`
	Mallocs    uint64  `json:"mallocs"`
	AllocBytes uint64  `json:"alloc_bytes"`
	PeakRSSMiB float64 `json:"peak_rss_mib"`
	// Tagged marks a round of the traced run whose requests carried the
	// harness's spans.
	Tagged bool `json:"tagged,omitempty"`
}

// rounds is what the timed phase observed.
type rounds struct {
	stats   []roundStat
	samples []sample
	bytes   int64
	wall    time.Duration
	// err is set when the process's memory could not be read.
	err error
}

func (r *rounds) requests() int {
	n := 0
	for _, s := range r.stats {
		n += s.OK + s.Failed
	}
	return n
}

// qps is the median over the rounds of verified responses per second.
func (r *rounds) qps() float64 {
	v := make([]float64, len(r.stats))
	for i, st := range r.stats {
		v[i] = float64(st.OK) / st.WallS
	}
	return median(v)
}

// cpuMsPerReq is the process's CPU time during the rounds per request.
func (r *rounds) cpuMsPerReq() float64 {
	sum := 0.0
	for _, st := range r.stats {
		sum += st.CPUMs
	}
	return sum / float64(r.requests())
}

// latenciesMs returns the latencies of the samples keep accepts.
func (r *rounds) latenciesMs(keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range r.samples {
		if keep(s) {
			out = append(out, ms(s.d))
		}
	}
	return out
}

func anyClass(sample) bool { return true }

func ofClass(class int) func(sample) bool {
	return func(s sample) bool { return s.class == class }
}

// runRounds drives the closed loop: every client sends its shuffled list of
// one round and waits for each reply; a round ends when all clients have
// finished theirs. Rounds repeat until the time is up. A response that
// fails the check counts as failed and contributes no latency sample. With
// tagHalf, the traced run's setting, the requests of one round of every
// pair, picked at random so that no rhythm of the collector lines up with
// it, carry a request identifier, which makes both ends record a span.
func runRounds(cfg runConfig, p *prepared, clients []*client, ops *opCounter, tagHalf bool) *rounds {
	w := cfg.workload
	rngs := make([]*rand.Rand, len(clients))
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(cfg.seed*31 + int64(i)))
	}
	tagRng := rand.New(rand.NewSource(cfg.seed))
	firstOfPair := false
	type clientRound struct {
		samples []sample
		failed  int
		bytes   int64
		err     error
	}
	out := &rounds{}
	var m0, m1 runtime.MemStats
	budget := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	for round := 0; round < cfg.minRounds || time.Since(start) < budget; round++ {
		results := make([]clientRound, len(clients))
		if err := resetPeakRSS(); err != nil && out.err == nil {
			out.err = err
		}
		runtime.ReadMemStats(&m0)
		cpu0 := cpuTime()
		if round%2 == 0 {
			firstOfPair = tagRng.Intn(2) == 1
		}
		tagged := tagHalf && firstOfPair == (round%2 == 0)
		roundStart := time.Now()
		var wg sync.WaitGroup
		for ci, c := range clients {
			order := roundOrder(rngs[ci], len(p.reqs), w.perRound)
			wg.Add(1)
			go func() {
				defer wg.Done()
				res := &results[ci]
				for k, ri := range order {
					tag := ""
					if tagged {
						tag = fmt.Sprintf("r%d.c%d.%d", round, ci, k)
					}
					status, d, err := c.post(&p.reqs[ri], tag)
					if err == nil {
						err = c.checkFast(status, p.exps[ri])
					}
					if err != nil {
						res.failed++
						if res.err == nil {
							res.err = fmt.Errorf("timed phase, %s: %w", p.reqs[ri].class, err)
						}
						continue
					}
					res.bytes += int64(c.buf.Len())
					res.samples = append(res.samples, sample{class: ri, d: d})
				}
			}()
		}
		wg.Wait()
		st := roundStat{WallS: time.Since(roundStart).Seconds(), Tagged: tagged}
		st.CPUMs = ms(cpuTime() - cpu0)
		runtime.ReadMemStats(&m1)
		st.Mallocs, st.AllocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
		var err error
		if st.PeakRSSMiB, err = peakRSSMiB(); err != nil && out.err == nil {
			out.err = err
		}
		for _, res := range results {
			st.OK += len(res.samples)
			st.Failed += res.failed
			out.samples = append(out.samples, res.samples...)
			out.bytes += res.bytes
			ops.add(len(res.samples), res.failed, res.err)
		}
		out.stats = append(out.stats, st)
	}
	out.wall = time.Since(start)
	return out
}

// verifyAll sends every request once, each fully decoded and compared with
// its reference.
func verifyAll(phase string, p *prepared, c *client, ops *opCounter) {
	for i := range p.reqs {
		status, _, err := c.post(&p.reqs[i], "")
		if err == nil {
			err = c.checkFull(status, p.exps[i])
		}
		if err != nil {
			err = fmt.Errorf("%s, %s: %w", phase, p.reqs[i].class, err)
		}
		ops.record(err)
	}
}

// warmUp sends every request once per client, fully checked, so that plans,
// cached results and connections are warm before anything is timed.
func warmUp(p *prepared, clients []*client, ops *opCounter) {
	for _, c := range clients {
		verifyAll("warm-up", p, c, ops)
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS makes the kernel start the process's resident-set high-water
// mark again from the current resident set.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// runMeasured is the untraced run of one workload: cold-start cycles, one
// untimed pass, then the timed phase. It fills in the end-to-end metrics.
func runMeasured(cfg runConfig, p *prepared, doc *document) error {
	ops := &opCounter{}
	w := cfg.workload

	// Phase 1: cold starts. All but the last are closed again.
	var s *sut
	var first *client
	var setups []float64
	for i := 0; i < cfg.cycles; i++ {
		if s != nil {
			first.close()
			s.Close()
			s = nil
			// Give the closed system's memory back, so that the process's
			// peak is that of one system and not of what the collector had
			// not yet got to.
			debug.FreeOSMemory()
		}
		var d time.Duration
		var err error
		s, first, d, err = coldStart(cfg, p, ops, nil)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	defer s.Close()
	clients := []*client{first}
	for len(clients) < w.clients {
		clients = append(clients, newClient(s.url))
	}
	defer closeAll(clients)

	// Phase 2: one untimed, fully checked pass per client.
	warmUp(p, clients, ops)
	runtime.GC()

	// Phase 3: the timed rounds. They reset the high-water mark of the
	// resident set, so what it reached until now is read first.
	rssMax, err := peakRSSMiB()
	if err != nil {
		return err
	}
	hits0 := s.sess.Metrics().ResultHits
	r := runRounds(cfg, p, clients, ops, false)
	hits := s.sess.Metrics().ResultHits - hits0
	if r.err != nil {
		return r.err
	}

	n := r.requests()
	if w.resultCache && hits != int64(n) {
		ops.record(fmt.Errorf("%d of %d timed requests hit the result cache; the workload is all hits by design", hits, n))
	}

	var mallocs, allocBytes uint64
	rss := make([]float64, len(r.stats))
	for i, st := range r.stats {
		mallocs += st.Mallocs
		allocBytes += st.AllocBytes
		rss[i] = st.PeakRSSMiB
		rssMax = max(rssMax, st.PeakRSSMiB)
	}
	m := doc.Metrics
	m.set("setup_s", median(setups), len(setups), setups...)
	m.set("allocs_per_req", float64(mallocs)/float64(n), n)
	m.set("alloc_kb_per_req", float64(allocBytes)/1024/float64(n), n)
	m.set("peak_rss_mb", median(rss), len(rss))

	doc.Rounds = r.stats
	doc.TimedS = r.wall.Seconds()
	doc.Requests = n
	doc.LatencySamples = len(r.samples)
	// The timings are shown by every run and gated by none (metrics.go).
	lat := r.latenciesMs(anyClass)
	doc.Info = map[string]float64{
		"client.qps":             r.qps(),
		"client.latency_p50_ms":  median(lat),
		"client.latency_p95_ms":  percentile(lat, 95),
		"client.latency_p99_ms":  percentile(lat, 99),
		"process.cpu_ms_per_req": r.cpuMsPerReq(),
		// The one reading a max is: the highest the resident set got in the
		// life of the process, cold starts included.
		"process.peak_rss_max_mb": rssMax,
	}
	for ci, req := range p.reqs {
		doc.Info["client.p50_ms."+req.class] = median(r.latenciesMs(ofClass(ci)))
	}
	doc.finish(ops)
	return nil
}
