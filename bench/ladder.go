package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"gradoop/internal/core"
	"gradoop/internal/cypher"
	"gradoop/internal/dataflow"
	"gradoop/internal/planner"
	"gradoop/internal/session"
	"gradoop/internal/stats"
	csvstore "gradoop/internal/storage/csv"
	enginetrace "gradoop/internal/trace"
)

// ladderSamples holds, for one class, the durations of every rung over the
// replays, by rung. Each rung is a separate execution of the same request,
// one layer further down: serve (ServeHTTP on a recorder), execute
// (session.Execute), core_execute and core_rows (Prepared.Execute,
// Result.Rows), remote (Coordinator.ExecuteRemote, cluster workload only) and
// run (Begin..Finish around the bound plan) in milliseconds; parse,
// querygraph, plan, bind and rebind in microseconds; leaf, join, expand and
// other are the engine's operator self times by kind, in milliseconds.
type ladderSamples struct {
	rungs    map[string][]float64
	leafRows float64
}

func (s *ladderSamples) add(rung string, v float64) { s.rungs[rung] = append(s.rungs[rung], v) }

func (s *ladderSamples) median(rung string) float64 { return median(s.rungs[rung]) }

// engine is what the rungs below the session need: the loaded graph data and
// its statistics, obtained the way a worker obtains them.
type engine struct {
	data  *session.GraphData
	stats *stats.GraphStatistics
}

// loadEngine reads the CSV directory and collects statistics three times
// over and reports the medians as the storage and stats layers' metrics.
func loadEngine(dir string, m metricSet) (*engine, error) {
	var reads, collects []float64
	var e *engine
	for i := 0; i < 3; i++ {
		env := dataflow.NewEnv(dataflow.DefaultConfig(partitions))
		t0 := time.Now()
		g, err := csvstore.ReadLogicalGraph(env, dir)
		if err != nil {
			return nil, err
		}
		reads = append(reads, ms(time.Since(t0)))
		t0 = time.Now()
		st := stats.Collect(g)
		collects = append(collects, ms(time.Since(t0)))
		e = &engine{data: session.NewGraphData(g), stats: st}
	}
	m.set("storage.csv_read_ms", median(reads), len(reads), reads...)
	m.set("stats.collect_ms", median(collects), len(collects), collects...)
	return e, nil
}

// ladder replays the workload's requests through the layers' exported
// functions until the budget is spent.
type ladder struct {
	rec     *recorder
	ops     *opCounter
	sut     *sut
	eng     *engine
	classes []request
	exps    []*expectation
	samples []ladderSamples
}

func (l *ladder) check(what string, r *request, want, got int64, err error) {
	if err == nil && got != want {
		err = fmt.Errorf("count %d, reference %d", got, want)
	}
	if err != nil {
		err = fmt.Errorf("ladder, %s of %s: %w", what, r.class, err)
	}
	l.ops.record(err)
}

// rung times one execution of a request at one level of the ladder. Each
// execution allocates a hundred megabytes or more, so without a collection
// in between, which rung pays for the garbage of the one before depends on
// their order; starting every rung from a collected heap makes differences
// between rungs mean something.
func (l *ladder) rung(name, req string, parent int, f func()) time.Duration {
	runtime.GC()
	return l.rec.timed(name, req, parent, f)
}

// replay runs every rung once for class ci. analyze adds one more engine
// execution with the engine's own tracer on, for the operator breakdown.
func (l *ladder) replay(rep, ci int, analyze bool) {
	r := &l.classes[ci]
	want := l.exps[ci].ref.Count
	s := &l.samples[ci]
	id := fmt.Sprintf("%s#%d", r.class, rep)
	ctx := context.Background()

	// server: the handler called directly, no socket.
	httpReq := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(r.body))
	rr := httptest.NewRecorder()
	d := l.rung("server.ServeHTTP(direct)", id, -1, func() { l.sut.handler.ServeHTTP(rr, httpReq) })
	count, _, err := wireDigest(rr.Body.Bytes())
	if err == nil && rr.Code != http.StatusOK {
		err = fmt.Errorf("status %d", rr.Code)
	}
	l.check("ServeHTTP", r, want, count, err)
	s.add("serve", ms(d))

	// session: Execute as the handler calls it.
	var resp *session.Response
	d = l.rung("session.Execute", id, -1, func() {
		resp, err = l.sut.sess.Execute(session.Request{Query: r.query, Params: r.params(), Context: ctx})
	})
	if err == nil {
		count = resp.Count
	}
	l.check("session.Execute", r, want, count, err)
	s.add("execute", ms(d))

	// cypher and planner: the compile a plan-cache miss pays.
	canonical := session.CanonicalQuery(r.query)
	compile := l.rec.begin("core.PrepareWith(steps)", id, -1)
	var ast *cypher.Query
	var tpl *cypher.QueryGraph
	var plan *planner.QueryPlan
	s.add("parse", us(l.rec.timed("cypher.Parse", id, compile, func() { ast, err = cypher.Parse(canonical) })))
	if err == nil {
		s.add("querygraph", us(l.rec.timed("cypher.BuildQueryGraphDeferred", id, compile, func() {
			tpl, err = cypher.BuildQueryGraphDeferred(ast)
		})))
	}
	if err == nil {
		_, access := l.eng.data.Bind(dataflow.NewEnv(dataflow.DefaultConfig(partitions)))
		pl := &planner.Planner{Stats: l.eng.stats, Morph: morphism}
		s.add("plan", us(l.rec.timed("planner.Plan", id, compile, func() { plan, err = pl.Plan(access, tpl) })))
	}
	l.rec.end(compile)
	if err != nil {
		l.check("compile", r, want, 0, err)
		return
	}
	prep := &core.Prepared{Query: canonical, AST: ast, Template: tpl, Plan: plan, Stats: l.eng.stats, Morph: morphism}

	// core: Prepared.Execute and Result.Rows, as the session calls them.
	execute := func(name string, col *enginetrace.Collector) *core.Result {
		env := dataflow.NewEnv(dataflow.DefaultConfig(partitions))
		g, access := l.eng.data.Bind(env)
		cfg := core.Config{Vertex: morphism.Vertex, Edge: morphism.Edge, Params: r.params(),
			Stats: l.eng.stats, Access: access, Context: ctx, Trace: col}
		var res *core.Result
		d := l.rung(name, id, -1, func() { res, err = prep.Execute(g, cfg) })
		if err == nil {
			count = res.Count()
		}
		l.check(name, r, want, count, err)
		if err != nil {
			return nil
		}
		if col == nil {
			s.add("core_execute", ms(d))
		}
		return res
	}
	if res := execute("core.Prepared.Execute", nil); res != nil {
		s.add("core_rows", ms(l.rec.timed("core.Result.Rows", id, -1, func() { res.Rows() })))
	}

	// cluster: what the session calls in place of Prepared.Execute when it
	// fronts a coordinator.
	if l.sut.coord != nil {
		env := dataflow.NewEnv(dataflow.DefaultConfig(partitions))
		g, access := l.eng.data.Bind(env)
		cfg := core.Config{Vertex: morphism.Vertex, Edge: morphism.Edge, Params: r.params(),
			Stats: l.eng.stats, Access: access, Context: ctx}
		var res *core.Result
		d := l.rung("cluster.Coordinator.ExecuteRemote", id, -1, func() { res, _, err = l.sut.coord.ExecuteRemote(g, prep, cfg) })
		if err == nil {
			count = res.Count()
		}
		l.check("ExecuteRemote", r, want, count, err)
		s.add("remote", ms(d))
	}

	// dataflow: the same execution taken apart into bind, rebind and the run
	// between Begin and Finish.
	env := dataflow.NewEnv(dataflow.DefaultConfig(partitions))
	_, access := l.eng.data.Bind(env)
	steps := l.rec.begin("core.Prepared.Execute(steps)", id, -1)
	var binding *cypher.Binding
	var bound *planner.QueryPlan
	s.add("bind", us(l.rec.timed("cypher.QueryGraph.Bind", id, steps, func() { binding, err = tpl.Bind(r.params()) })))
	if err == nil {
		s.add("rebind", us(l.rec.timed("planner.Rebind", id, steps, func() { bound, err = planner.Rebind(plan, access, binding) })))
	}
	if err == nil {
		d = l.rung("dataflow.run", id, steps, func() {
			env.Begin(ctx)
			count = bound.Execute().Count()
			err = env.Finish()
		})
		s.add("run", ms(d))
	}
	l.rec.end(steps)
	l.check("dataflow run", r, want, count, err)

	// operators: the engine's own per-operator self times.
	if analyze {
		if res := execute("core.Prepared.Execute(analyze)", enginetrace.NewCollector()); res != nil {
			var leaf, join, expand, other, leafRows float64
			for _, op := range res.AnalyzedOps() {
				w := float64(op.WallNs) / 1e6
				switch {
				case strings.HasPrefix(op.Op, "FilterAndProject"):
					leaf += w
					if !op.Shared {
						leafRows += float64(op.Act)
					}
				case strings.Contains(op.Op, "Join") || strings.HasPrefix(op.Op, "CartesianProduct"):
					join += w
				case strings.HasPrefix(op.Op, "ExpandEmbeddings"):
					expand += w
				default:
					other += w
				}
			}
			s.add("leaf", leaf)
			s.add("join", join)
			s.add("expand", expand)
			s.add("other", other)
			s.leafRows = leafRows
		}
	}
}

// meanOfMedians is the expected value of a rung for one request of the
// workload: the rounds hold every class equally often, so the mean over
// classes of each class's median is what an average request costs. n is the
// number of samples behind it.
func (l *ladder) meanOfMedians(rung string) (v float64, n int) {
	for i := range l.samples {
		v += l.samples[i].median(rung) / float64(len(l.samples))
		n += len(l.samples[i].rungs[rung])
	}
	return v, n
}

// below is what session.Execute calls beneath itself for one class: nothing
// on a result-cache hit, the coordinator and the rows on the cluster, and
// otherwise bind, rebind, the run and the rows. In milliseconds.
func (l *ladder) below(w workload, s *ladderSamples) float64 {
	switch {
	case w.resultCache:
		return 0
	case w.cluster:
		return s.median("remote") + s.median("core_rows")
	default:
		return s.median("bind")/1000 + s.median("rebind")/1000 + s.median("run") + s.median("core_rows")
	}
}

// run replays every class down the ladder until the budget is spent, three
// times at least; the first two replays also take the operator breakdown.
func (l *ladder) run(budget time.Duration) {
	start := time.Now()
	for rep := 0; rep < 3 || time.Since(start) < budget; rep++ {
		for ci := range l.classes {
			l.replay(rep, ci, rep < 2)
		}
	}
}

// metrics turns the rung samples into the ladder's per-layer metrics and
// returns, per class, how much of the measured session.Execute span the rungs
// below it account for.
func (l *ladder) metrics(w workload, m metricSet) map[string]float64 {
	// A metric that is a rung, and the two that are differences of rungs.
	for name, rung := range map[string]string{
		"core.execute_ms": "core_execute", "core.rows_ms": "core_rows", "dataflow.run_ms": "run",
		"cypher.parse_us": "parse", "cypher.querygraph_us": "querygraph", "cypher.bind_us": "bind",
		"planner.plan_us": "plan", "planner.rebind_us": "rebind",
		"operators.leaf_ms": "leaf", "operators.join_ms": "join",
		"operators.expand_ms": "expand", "operators.other_ms": "other",
	} {
		v, n := l.meanOfMedians(rung)
		m.set(name, v, n)
	}
	serve, n := l.meanOfMedians("serve")
	execute, _ := l.meanOfMedians("execute")
	children := 0.0
	for ci := range l.samples {
		children += l.below(w, &l.samples[ci]) / float64(len(l.samples))
	}
	m.set("server.self_ms", serve-execute, n)
	m.set("session.self_ms", execute-children, n)

	var leafRows, resultRows float64
	biggest := 0
	for ci := range l.samples {
		leafRows += l.samples[ci].leafRows
		resultRows += float64(l.exps[ci].ref.Count)
		if l.exps[ci].ref.Count > l.exps[biggest].ref.Count {
			biggest = ci
		}
	}
	m.set("operators.rows_examined_per_result", leafRows/max(resultRows, 1), len(l.samples))
	// The largest body isolates encoding: the handler's time beyond Execute,
	// per row it wrote.
	big := &l.samples[biggest]
	m.set("server.encode_ns_per_row",
		(big.median("serve")-big.median("execute"))*1e6/float64(max(l.exps[biggest].ref.Count, 1)), len(big.rungs["serve"]))

	// On the all-hits workload Execute runs none of the rungs below it, so
	// there is nothing to cover.
	cover := map[string]float64{}
	if !w.resultCache {
		for ci, r := range l.classes {
			cover["ladder.cover."+r.class] = l.below(w, &l.samples[ci]) / l.samples[ci].median("execute")
		}
	}
	return cover
}
