package conformance

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	_ "unsafe" // go:linkname, below

	"gradoop"
	"gradoop/internal/cluster"
	"gradoop/internal/core"
	"gradoop/internal/cypher"
	"gradoop/internal/dataflow"
	"gradoop/internal/epgm"
	"gradoop/internal/obs"
	"gradoop/internal/planner"
	"gradoop/internal/qstore"
	"gradoop/internal/server"
	"gradoop/internal/session"
	"gradoop/internal/stats"
	"gradoop/internal/trace"
)

// mode is one way to execute a case: run is a function of the case and of
// the fixture the case carries.
type mode struct {
	name string
	run  func(c *kase) outcome
	// twin is the mode this one must equal row for row and in order: the same
	// deployment at the same partition count with this mode's feature off. It
	// comes earlier in the table.
	twin string
	// sameWork: the feature claims the twin's work, so the charges are the
	// twin's too.
	sameWork bool
	cluster  bool // the mode starts TCP workers; -short leaves it out
	// bindings: the mode answers with every binding of a match, anonymous
	// variables included. It is held to the reference's bindings, on the
	// cases the reference evaluates and no others.
	bindings bool
}

// modes is every execution path. The first is the anchor. The plans mode sets
// a variable every mode in the process reads, so modes run one at a time.
var modes = []mode{
	{name: "engine/1", run: engine{partitions: 1}.run},
	{name: "engine/4", run: engine{partitions: 4}.run},
	{name: "engine/16", run: engine{partitions: 16}.run},
	{name: "indexed/1", run: engine{partitions: 1, indexed: true}.run},
	{name: "indexed/4", run: engine{partitions: 4, indexed: true}.run},
	{name: "indexed/16", run: engine{partitions: 16, indexed: true}.run},
	{name: "no-reuse/4", run: engine{partitions: 4, noReuse: true}.run},
	{name: "traced/4", run: engine{partitions: 4, traced: true}.run, twin: "engine/4", sameWork: true},
	{name: "killed/4", run: engine{partitions: 4, faults: killEveryStage}.run, twin: "engine/4"},
	{name: "random-kills/4", run: engine{partitions: 4, faults: randomKills}.run, twin: "engine/4"},
	{name: "indexed-killed/4", run: engine{partitions: 4, indexed: true, faults: killEveryStage}.run, twin: "indexed/4"},
	{name: "plans/4", run: planned(8, engine{partitions: 4, indexed: true}.run)},
	{name: "flat-stats/4", run: engine{partitions: 4, indexed: true, flat: true}.run},
	{name: "api/4", run: library, twin: "engine/4"},
	{name: "graphs/4", run: graphs, bindings: true},
	{name: "session/1", run: served{partitions: 1}.run},
	{name: "session/4", run: served{partitions: 4}.run},
	{name: "session/16", run: served{partitions: 16}.run},
	{name: "no-plan-cache/4", run: served{partitions: 4, with: noPlanCache}.run, twin: "session/4", sameWork: true},
	{name: "result-cache-hit/4", run: served{partitions: 4, hit: true}.run, twin: "session/4"},
	{name: "governed/4", run: served{partitions: 4, with: governed}.run, twin: "session/4", sameWork: true},
	{name: "registry/4", run: served{partitions: 4, with: registry}.run, twin: "session/4", sameWork: true},
	{name: "qstore/4", run: served{partitions: 4, with: queryStore}.run, twin: "session/4", sameWork: true},
	{name: "http/4", run: overHTTP{}.run, twin: "session/4"},
	{name: "http-hit/4", run: overHTTP{hit: true}.run, twin: "session/4"},
	{name: "cluster-1w/4", run: served{partitions: 4, with: workers(1)}.run, twin: "session/4", sameWork: true, cluster: true},
	{name: "cluster-2w/4", run: served{partitions: 4, with: workers(2)}.run, twin: "session/4", sameWork: true, cluster: true},
	{name: "cluster-4w/4", run: served{partitions: 4, with: workers(4)}.run, twin: "session/4", sameWork: true, cluster: true},
	{name: "cluster-2w-traced/4", run: served{partitions: 4, with: workers(2), traced: true}.run, twin: "cluster-2w/4", sameWork: true, cluster: true},
}

// anyError is the kind of an error its mode cannot classify: the library
// returns the engine's error as it is.
const anyError = "error"

// scribbleSpare is cluster's: set, a worker overwrites the receive memory an
// attempt gives back before it keeps it for the next. A cluster mode runs a
// fixture's cases back to back on one cluster, so every case but the first
// receives into memory an earlier one gave back, and a row still read from it
// after its attempt ended is garbage, not the right row by luck.
//
//go:linkname scribbleSpare gradoop/internal/cluster.scribbleSpare
var scribbleSpare bool

func init() { scribbleSpare = true }

// choose is planner's: set, the greedy step takes the candidate it picks of
// the legal ones instead of the cheapest. It has no setter - to every other
// mode it is nil - so the plans mode reaches it by name.
//
//go:linkname choose gradoop/internal/planner.choose
var choose func(n int) int

// planned runs a case k times, each under a plan of its own that a seeded
// chooser picks step by step, and answers with the first run's outcome if all
// k agree as bags - the judge holds that one to the expected rows - or else
// with an error naming the seed that disagrees. The outcome carries the least
// and the most CPU the seeds' runs charged.
func planned(k int, run func(c *kase) outcome) func(c *kase) outcome {
	return func(c *kase) outcome {
		defer func() { choose = nil }()
		var first outcome
		var cpu []int64
		for seed := range k {
			choose = rand.New(rand.NewPCG(uint64(seed), 2017)).IntN
			o := run(c)
			if seed == 0 {
				first = o
			} else if o.err != first.err || !slices.Equal(o.bag(), first.bag()) {
				return outcome{err: fmt.Sprintf("plan seed %d: %d rows, error %q; seed 0: %d rows, error %q", seed, len(o.rows), o.err, len(first.rows), first.err)}
			}
			if o.job != nil {
				cpu = append(cpu, o.job.TotalCPU)
			}
		}
		if len(cpu) > 0 {
			first.seedCPU = [2]int64{slices.Min(cpu), slices.Max(cpu)}
		}
		return first
	}
}

// engine runs a case through core.Prepare and Prepared.Execute on a graph of
// its own.
type engine struct {
	partitions int
	indexed    bool // leaves read the label index, as a session's do
	flat       bool // the planner knows the counts of elements and labels and no more (flatStats)
	noReuse    bool // a recurring leaf is planned once per occurrence
	traced     bool
	// faults plans the kills for a job that ran clean in stages stages.
	faults func(stages int64, partitions int) *dataflow.FaultPlan
}

func (e engine) run(c *kase) outcome {
	o := e.once(c, nil)
	if e.faults == nil || o.err != "" {
		return o
	}
	return e.once(c, e.faults(o.job.Stages, e.partitions))
}

func (e engine) once(c *kase, plan *dataflow.FaultPlan) outcome {
	g := c.f.graph(e.partitions)
	st := c.f.stats
	if e.flat {
		st = flatStats(st)
	}
	cfg := core.Config{Vertex: c.morph.Vertex, Edge: c.morph.Edge, Params: c.params, Stats: st, DisableSubqueryReuse: e.noReuse}
	if e.indexed {
		cfg.Access = planner.IndexedAccess{Index: epgm.BuildIndex(g)}
	}
	if e.traced {
		cfg.Trace = trace.NewCollector()
	}
	prep, err := core.Prepare(g, c.query, cfg)
	if err != nil {
		return outcome{err: session.KindInvalid.String()}
	}
	g.Env().ResetMetrics()
	g.Env().InjectFaults(plan)
	res, err := prep.Execute(g, cfg)
	switch {
	case errors.As(err, new(*cypher.MissingParamError)):
		return outcome{err: session.KindInvalid.String()}
	case err != nil:
		return outcome{err: session.KindFailed.String()}
	}
	o := table(res.Columns(), res.Rows())
	job := g.Env().Metrics()
	o.job = &job
	return o
}

// flatStats keeps of st the counts of vertices, edges and each label: no
// distinct counts of ids or property values, so every estimate past a leaf's
// label count is a default - the plan a bad estimate produces.
func flatStats(st *stats.GraphStatistics) *stats.GraphStatistics {
	return &stats.GraphStatistics{VertexCount: st.VertexCount, EdgeCount: st.EdgeCount,
		VertexCountByLabel: st.VertexCountByLabel, EdgeCountByLabel: st.EdgeCountByLabel}
}

// killEveryStage kills partition 0 of every stage once.
func killEveryStage(stages int64, _ int) *dataflow.FaultPlan {
	plan := &dataflow.FaultPlan{}
	for stage := range stages {
		plan.Kills = append(plan.Kills, dataflow.Kill{Stage: stage + 1})
	}
	return plan
}

// randomKills is a seeded schedule of three kills a stage, some of one
// attempt twice.
func randomKills(stages int64, partitions int) *dataflow.FaultPlan {
	return &dataflow.FaultPlan{MaxRetries: 3 * int(stages), Kills: dataflow.RandomKills(2017, 3*int(stages), stages, partitions)}
}

// library runs a case through CypherRows on one graph per fixture, as a
// program of the library's would.
func library(c *kase) outcome {
	g := hold(c.f, "graph", func() (*gradoop.LogicalGraph, func()) {
		return gradoop.NewEnvironment(gradoop.WithWorkers(4)).GraphFromSlices(c.f.name, c.f.vs, c.f.es), func() {}
	})
	rows, err := g.CypherRows(c.query, gradoop.WithVertexSemantics(c.morph.Vertex), gradoop.WithEdgeSemantics(c.morph.Edge), gradoop.WithParams(c.params))
	if err != nil {
		return outcome{err: anyError}
	}
	o := table(nil, rows)
	if len(rows) > 0 {
		o.cols = rows[0].Columns
	}
	return o
}

// graphs runs a case through LogicalGraph.Cypher, the paper's operator, whose
// graph collection has a graph per match: a row per graph head, a cell per
// variable of the query, anonymous ones included, read off the head's
// properties - the one result that reads every binding.
func graphs(c *kase) outcome {
	g := hold(c.f, "graph", func() (*gradoop.LogicalGraph, func()) {
		return gradoop.NewEnvironment(gradoop.WithWorkers(4)).GraphFromSlices(c.f.name, c.f.vs, c.f.es), func() {}
	})
	coll, err := g.Cypher(c.query, gradoop.WithVertexSemantics(c.morph.Vertex), gradoop.WithEdgeSemantics(c.morph.Edge), gradoop.WithParams(c.params))
	if err != nil {
		return outcome{err: anyError}
	}
	qg, ok := pattern(c)
	if !ok {
		return outcome{} // not judged: the reference has no bindings for it
	}
	heads := coll.Heads()
	rows := make([]core.Row, len(heads))
	o := outcome{cols: bindings(qg, true)}
	for i, h := range heads {
		rows[i].Values = make([]epgm.PropertyValue, len(o.cols))
		for j, v := range o.cols {
			rows[i].Values[j] = h.Properties.Get(v)
		}
	}
	o.rows = table(nil, rows).rows
	return o
}

// served runs a case through a session the fixture keeps for the mode and
// the case's morphism, and drains the rows as a response is drained.
type served struct {
	partitions int
	hit        bool                                 // the outcome is the result-cache hit after the miss
	traced     bool                                 // every request asks for a trace
	with       func(f *fixture, o *session.Options) // turns the mode's feature on
}

func (s served) run(c *kase) outcome {
	sess := hold(c.f, fmt.Sprint(c.morph), func() (*session.Session, func()) {
		o := session.Options{Workers: s.partitions, Vertex: c.morph.Vertex, Edge: c.morph.Edge}
		if s.with != nil {
			s.with(c.f, &o)
		}
		sess := session.New(c.f.graph(s.partitions), o)
		return sess, sess.Close
	})
	o := serve(sess, c, s.traced)
	if s.hit && o.err == "" {
		if o = serve(sess, c, s.traced); o.job != nil {
			o.err = "executed where the result cache should have answered"
		}
	}
	return o
}

func serve(s *session.Session, c *kase, traced bool) outcome {
	resp, err := s.Execute(session.Request{Query: c.query, Params: c.params, Trace: traced})
	if err != nil {
		return outcome{err: session.KindOf(err).String()}
	}
	var body bytes.Buffer
	var rows []json.RawMessage
	if _, err := resp.WriteRows(&body); err != nil {
		return outcome{err: err.Error()}
	}
	if err := json.Unmarshal(body.Bytes(), &rows); err != nil {
		return outcome{err: err.Error()}
	}
	o := outcome{cols: resp.Columns, rows: raw(rows)}
	if rep := resp.Cluster; rep != nil && rep.Attempts != 1 {
		// Nothing fails a worker here: an attempt retried is a frame that
		// failed, which a recovered result would hide.
		o.err = fmt.Sprintf("a cluster job ran %d attempts", rep.Attempts)
	} else if rep != nil && traced && (rep.PartialTelemetry || rep.Trace == nil) {
		o.err = "a traced cluster job came back without every worker's spans"
	}
	if !resp.FromResultCache {
		o.job = &resp.Metrics
	}
	return o
}

func raw(rows []json.RawMessage) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = string(r)
	}
	return out
}

func noPlanCache(_ *fixture, o *session.Options) { o.NoPlanCache = true }
func governed(_ *fixture, o *session.Options)    { o.MemoryBudget = 1 << 30 }
func registry(_ *fixture, o *session.Options)    { o.Metrics = obs.NewRegistry() }

// queryStore records the mode's executions on the fixture into one store.
func queryStore(f *fixture, o *session.Options) {
	o.QueryStore = hold(f, "qstore", func() (*qstore.Store, func()) {
		dir, err := os.MkdirTemp("", "conformance")
		if err != nil {
			panic(err)
		}
		st, err := qstore.Open(qstore.Options{Dir: dir})
		if err != nil {
			panic(err)
		}
		return st, func() { st.Close(); os.RemoveAll(dir) }
	})
}

// workers runs the session's jobs on n TCP workers over loopback, one cluster
// per fixture for all the mode's sessions. Each worker has a registry, as a
// deployed one does.
func workers(n int) func(f *fixture, o *session.Options) {
	return func(f *fixture, o *session.Options) {
		o.Remote = hold(f, "cluster", func() (*cluster.Coordinator, func()) {
			data := session.NewGraphData(f.graph(o.Workers))
			var ws []*cluster.Worker
			var addrs []string
			for i := range n {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					panic(err)
				}
				w := cluster.NewWorkerWith(fmt.Sprintf("w%d", i), data, cluster.WorkerOptions{Metrics: obs.NewRegistry()})
				go w.Serve(ln)
				ws, addrs = append(ws, w), append(addrs, ln.Addr().String())
			}
			coord, err := cluster.NewCoordinator(addrs, cluster.Options{Workers: o.Workers})
			if err != nil {
				panic(err)
			}
			return coord, func() {
				coord.Close()
				for _, w := range ws {
					w.Close()
				}
			}
		})
	}
}

// overHTTP posts a case to server.New over a session at four partitions; an
// error is the kind its status code stands for.
type overHTTP struct {
	hit bool // the outcome is the result-cache hit after the miss
}

var kindOfStatus = map[int]session.Kind{
	http.StatusBadRequest:          session.KindInvalid,
	http.StatusTooManyRequests:     session.KindRejected,
	http.StatusGatewayTimeout:      session.KindTimeout,
	http.StatusInternalServerError: session.KindFailed,
	http.StatusServiceUnavailable:  session.KindMemoryBudget,
}

func (h overHTTP) run(c *kase) outcome {
	handler := hold(c.f, fmt.Sprint(c.morph), func() (http.Handler, func()) {
		sess := session.New(c.f.graph(4), session.Options{Workers: 4, Vertex: c.morph.Vertex, Edge: c.morph.Edge})
		return server.New(sess, server.Config{}), sess.Close
	})
	o, cached := post(handler, c)
	if h.hit && o.err == "" {
		if o, cached = post(handler, c); !cached {
			o.err = "executed where the result cache should have answered"
		}
	}
	return o
}

func post(h http.Handler, c *kase) (o outcome, cached bool) {
	req, err := json.Marshal(map[string]any{"query": c.query, "params": c.json})
	if err != nil {
		return outcome{err: err.Error()}, false
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(req)))
	if rr.Code != http.StatusOK {
		if kind, ok := kindOfStatus[rr.Code]; ok {
			return outcome{err: kind.String()}, false
		}
		return outcome{err: fmt.Sprintf("status %d", rr.Code)}, false
	}
	var body struct {
		Columns         []string          `json:"columns"`
		Rows            []json.RawMessage `json:"rows"`
		FromResultCache bool              `json:"fromResultCache"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		return outcome{err: err.Error()}, false
	}
	return outcome{cols: body.Columns, rows: raw(body.Rows)}, body.FromResultCache
}
