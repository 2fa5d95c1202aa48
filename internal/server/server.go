// Package server exposes a session over JSON-HTTP: /query executes Cypher
// (POST JSON body or GET with q= and param.NAME= pairs), /explain renders
// the cached template plan, /analyze executes with tracing and returns the
// EXPLAIN ANALYZE view, /metrics serves the Prometheus text exposition
// (federated with per-worker-labeled gradoop_cluster_* series when the
// session fronts a worker cluster), /cluster/workers the cluster roster
// with liveness and per-worker job counts,
// /metrics.json the service counters and cache hit ratios as JSON, /jobs
// the live table of in-flight queries with their current stage,
// /querystore/top, /querystore/fingerprint/{id} and /querystore/regressions
// the persistent query store's aggregates and drift feed (404 when no
// store is configured), /healthz liveness. Every response carries an X-Trace-Id header that is also
// stamped into the request context, so session log records (slow-query
// log included) correlate with it; structured session errors map to
// structured HTTP statuses (400 invalid, 429 queue full, 504 deadline,
// 500 execution failure) — an admitted or rejected request always gets an
// answer, never a hang. NewOpsMux serves pprof on a separate,
// operator-only listener.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"gradoop/internal/core"
	"gradoop/internal/epgm"
	"gradoop/internal/obs"
	"gradoop/internal/params"
	"gradoop/internal/qstore"
	"gradoop/internal/session"
)

// Config carries the server's observability wiring. Both fields are
// optional: a nil Metrics registry leaves /metrics empty and all
// instruments nil (zero recording cost), a nil Logger disables the
// request log.
type Config struct {
	// Metrics is the registry the Prometheus exposition at /metrics reads.
	// Pass the same registry the session publishes into so engine, session
	// and server series share one scrape.
	Metrics *obs.Registry
	// Logger receives one structured record per request.
	Logger *slog.Logger
}

// Server handles HTTP requests against one session.
type Server struct {
	session  *session.Session
	mux      *http.ServeMux
	traceID  atomic.Int64
	registry *obs.Registry
	logger   *slog.Logger
	obs      httpInstruments
}

// New builds a server over a session.
func New(s *session.Session, cfg Config) *Server {
	srv := &Server{
		session:  s,
		mux:      http.NewServeMux(),
		registry: cfg.Metrics,
		logger:   cfg.Logger,
		obs:      newHTTPInstruments(cfg.Metrics),
	}
	srv.mux.HandleFunc("/query", srv.handleQuery)
	srv.mux.HandleFunc("/explain", srv.handleExplain)
	srv.mux.HandleFunc("/analyze", srv.handleAnalyze)
	srv.mux.HandleFunc("/metrics", srv.handlePrometheus)
	srv.mux.HandleFunc("/metrics.json", srv.handleMetricsJSON)
	srv.mux.HandleFunc("/jobs", srv.handleJobs)
	srv.mux.HandleFunc("/querystore/top", srv.handleQStoreTop)
	srv.mux.HandleFunc("/querystore/fingerprint/", srv.handleQStoreFingerprint)
	srv.mux.HandleFunc("/querystore/regressions", srv.handleQStoreRegressions)
	srv.mux.HandleFunc("/cluster/workers", srv.handleClusterWorkers)
	srv.mux.HandleFunc("/healthz", srv.handleHealthz)
	return srv
}

// clusterIntrospector returns the session's remote executor's observability
// surface, or nil when the server fronts an in-process session (or a remote
// executor that doesn't expose one).
func (s *Server) clusterIntrospector() session.ClusterIntrospector {
	ci, _ := s.session.Options().Remote.(session.ClusterIntrospector)
	return ci
}

// ServeHTTP implements http.Handler. It stamps the per-request trace ID
// into both the response header and the request context (the session's
// job table and slow-query log read it back from there), then records the
// request into the per-endpoint instruments and the request log.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := fmt.Sprintf("%08x", s.traceID.Add(1))
	w.Header().Set("X-Trace-Id", id)
	r = r.WithContext(obs.WithTraceID(r.Context(), id))
	sw := &statusWriter{ResponseWriter: w}
	start := time.Now()
	s.mux.ServeHTTP(sw, r)
	s.observe(r, sw, time.Since(start))
}

// execute runs the request and gives the delivery of its answer - result or
// error - the time the request had for itself: its own timeout, else the
// session's default. A client that stops reading then fails the handler's
// next write instead of holding the handler, and the result it holds, for as
// long as the connection lives. The bound starts when the answer is ready and
// not when the request arrived: a query that ran into its timeout has none of
// it left, and is still owed its 504. net/http clears the connection's write
// deadline when the request ends, so the next one starts without.
func (s *Server) execute(w http.ResponseWriter, req session.Request) (*session.Response, error) {
	res, err := s.session.Execute(req)
	timeout := req.Timeout
	if timeout <= 0 {
		timeout = s.session.Options().DefaultTimeout
	}
	if timeout > 0 {
		// ErrNotSupported: a writer that is no connection has no reader to stall on.
		_ = http.NewResponseController(w).SetWriteDeadline(time.Now().Add(timeout))
	}
	return res, err
}

// queryRequest is the POST /query (and /analyze) body.
type queryRequest struct {
	Query string `json:"query"`
	// Params are the $parameter bindings; JSON numbers become ints when
	// integral.
	Params map[string]any `json:"params"`
	// Timeout is a Go duration string ("250ms", "5s"); empty inherits the
	// server default.
	Timeout string `json:"timeout"`
	// Trace requests a Chrome trace of this execution in the response.
	Trace bool `json:"trace"`
}

// queryEnvelope is what follows columns and rows in the /query response.
type queryEnvelope struct {
	Count           int64           `json:"count"`
	Fingerprint     string          `json:"fingerprint,omitempty"`
	PlanCacheHit    bool            `json:"planCacheHit"`
	FromResultCache bool            `json:"fromResultCache"`
	ElapsedMs       float64         `json:"elapsedMs"`
	QueueWaitMs     float64         `json:"queueWaitMs"`
	SimTimeMs       float64         `json:"simTimeMs"`
	ChromeTrace     json.RawMessage `json:"chromeTrace,omitempty"`
	// Cluster reports the distributed execution (roster size, recovery
	// attempts, per-stage predicted-vs-actual) when the server fronts a
	// worker cluster; absent for in-process executions and cache hits.
	Cluster *session.ClusterReport `json:"cluster,omitempty"`
}

// errorResponse is every non-2xx body. TraceID carries the request's
// X-Trace-Id so a client-side error report can be correlated with server
// logs without the client having to read the header.
type errorResponse struct {
	Error   string `json:"error"`
	Kind    string `json:"kind"`
	TraceID string `json:"traceId,omitempty"`
}

// decodeQuery extracts a session request from either verb: POST parses the
// JSON body, GET reads q= and repeated param.NAME=value pairs (CLI-style
// type inference via the shared params package).
func decodeQuery(r *http.Request) (session.Request, error) {
	var req session.Request
	switch r.Method {
	case http.MethodPost:
		var body queryRequest
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&body); err != nil {
			return req, fmt.Errorf("bad request body: %w", err)
		}
		p, err := params.FromJSON(body.Params)
		if err != nil {
			return req, err
		}
		req.Query = body.Query
		req.Params = p
		req.Trace = body.Trace
		if body.Timeout != "" {
			d, err := time.ParseDuration(body.Timeout)
			if err != nil {
				return req, fmt.Errorf("bad timeout %q: %w", body.Timeout, err)
			}
			req.Timeout = d
		}
	case http.MethodGet:
		q := r.URL.Query()
		req.Query = q.Get("q")
		for name, values := range q {
			if !strings.HasPrefix(name, "param.") || len(values) == 0 {
				continue
			}
			if req.Params == nil {
				req.Params = map[string]epgm.PropertyValue{}
			}
			req.Params[strings.TrimPrefix(name, "param.")] = params.Infer(values[0])
		}
		if t := q.Get("timeout"); t != "" {
			d, err := time.ParseDuration(t)
			if err != nil {
				return req, fmt.Errorf("bad timeout %q: %w", t, err)
			}
			req.Timeout = d
		}
		req.Trace = q.Get("trace") == "true"
	default:
		return req, fmt.Errorf("method %s not allowed", r.Method)
	}
	req.Context = r.Context()
	return req, nil
}

// handleQuery executes a query and renders its rows.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, err := decodeQuery(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	res, err := s.execute(w, req)
	if err != nil {
		writeSessionError(w, r, err)
		return
	}
	out := queryEnvelope{
		Count:           res.Count,
		Fingerprint:     res.Fingerprint,
		PlanCacheHit:    res.PlanCacheHit,
		FromResultCache: res.FromResultCache,
		ElapsedMs:       ms(res.Elapsed),
		QueueWaitMs:     ms(res.QueueWait),
		SimTimeMs:       ms(res.Metrics.SimTime),
		Cluster:         res.Cluster,
	}
	if res.Trace != nil {
		var buf bytes.Buffer
		if err := res.Trace.WriteChromeTrace(&buf); err == nil {
			out.ChromeTrace = json.RawMessage(buf.Bytes())
		}
	} else if res.Cluster != nil && res.Cluster.Trace != nil {
		// Distributed tracing: the coordinator merged the workers' shipped
		// span bundles into one document, one process lane per worker.
		if raw, err := json.Marshal(res.Cluster.Trace); err == nil {
			out.ChromeTrace = json.RawMessage(raw)
		}
	}
	writeQuery(w, res, out)
}

// writeQuery writes the /query body: {"columns":[...],"rows":[...] and then
// the envelope's fields. The rows are never a value of this package: a
// result-cache hit's are the cache entry's bytes, written as they are between
// two small buffers, and an execution's are encoded from its result a chunk
// at a time (session.Response.WriteRows). Everything the envelope says is
// known before the first row is written, so the body's length is known as
// soon as the rows' is.
func writeQuery(w http.ResponseWriter, res *session.Response, env queryEnvelope) {
	body := &bodyWriter{w: w, rowsLen: res.RowsLen}
	n := len(`{"columns":[],"rows":`)
	for _, c := range res.Columns {
		n += len(c) + len(`"",`) // exactly, unless a name needs escaping
	}
	body.head = append(make([]byte, 0, n), `{"columns":[`...)
	for i, c := range res.Columns {
		if i > 0 {
			body.head = append(body.head, ',')
		}
		body.head = core.AppendJSONValue(body.head, epgm.PVString(c))
	}
	body.head = append(body.head, `],"rows":`...)

	enc := json.NewEncoder(&body.tail)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(env); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	body.tail[0] = ',' // the envelope's opening brace: its fields carry on the body's object

	w.Header().Set("Content-Type", "application/json")
	// A write fails when the client has gone or has stopped reading for
	// longer than the request's deadline: nobody to tell, nothing more to send.
	if _, err := res.WriteRows(body); err == nil {
		_, _ = w.Write(body.tail)
	}
}

// bodyWriter is the /query body around its rows, and the writer the rows go
// through: it commits the response at their first piece, which is where its
// framing is decided. A result-cache hit knows its rows' length and announces
// the body's. An execution learns it from the piece: an array shorter than a
// chunk arrives as one (core.RowsChunk), so the length is known and is
// announced - the response of a small result is byte for byte what it was
// when the body was built first; a piece of a chunk or more is the first of
// several, and the body starts leaving without a length, chunked.
type bodyWriter struct {
	w         http.ResponseWriter
	head      []byte
	tail      appendWriter
	rowsLen   int // 0 until known
	committed bool
}

// appendWriter is the writer json.Encoder needs, over a slice that lives in
// the bodyWriter: the envelope's one Write allocates its bytes and no more.
type appendWriter []byte

func (a *appendWriter) Write(p []byte) (int, error) {
	*a = append(*a, p...)
	return len(p), nil
}

func (b *bodyWriter) Write(p []byte) (int, error) {
	if !b.committed {
		b.committed = true
		if b.rowsLen == 0 && len(p) < core.RowsChunk {
			b.rowsLen = len(p)
		}
		if b.rowsLen > 0 {
			b.w.Header().Set("Content-Length", strconv.Itoa(len(b.head)+b.rowsLen+len(b.tail)))
		}
		b.w.WriteHeader(http.StatusOK)
		if _, err := b.w.Write(b.head); err != nil {
			return 0, err
		}
	}
	return b.w.Write(p)
}

// handleExplain renders the cached template plan without executing.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	req, err := decodeQuery(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	plan, fingerprint, err := s.session.Explain(req.Query)
	if err != nil {
		writeSessionError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{
		"plan":        plan,
		"fingerprint": fingerprint,
	})
}

// handleAnalyze executes with tracing and returns the EXPLAIN ANALYZE
// rendering (estimated vs. actual cardinalities, per-operator time).
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	req, err := decodeQuery(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	req.Trace = true
	res, err := s.execute(w, req)
	if err != nil {
		writeSessionError(w, r, err)
		return
	}
	body := map[string]any{
		"analyzedPlan": res.Result.AnalyzedPlan(),
		// operators is the structured twin of the text rendering, in the
		// same qstore.OpMetrics schema the query store persists — one
		// schema for the live view and the history.
		"operators":    res.Result.AnalyzedOps(),
		"fingerprint":  res.Fingerprint,
		"count":        res.Count,
		"planCacheHit": res.PlanCacheHit,
		"elapsedMs":    ms(res.Elapsed),
		"memBytes":     res.Metrics.TotalMem,
	}
	if res.Cluster != nil {
		// Distributed runs trace on the workers: the per-stage
		// predicted-vs-actual table replaces the in-process span analysis.
		body["cluster"] = res.Cluster
	}
	writeJSON(w, http.StatusOK, body)
}

// qstoreOr404 returns the session's query store, or answers 404 (the
// store is an optional subsystem enabled by -qstore-dir).
func (s *Server) qstoreOr404(w http.ResponseWriter) *qstore.Store {
	st := s.session.QueryStore()
	if st == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{
			Error: "query store disabled (start with -qstore-dir)",
			Kind:  session.KindInvalid.String(),
		})
		return nil
	}
	return st
}

// handleQStoreTop lists per-fingerprint aggregates ordered by ?sort=
// (slowest | frequent | qerror, default slowest), at most ?limit= entries
// (default 20).
func (s *Server) handleQStoreTop(w http.ResponseWriter, r *http.Request) {
	st := s.qstoreOr404(w)
	if st == nil {
		return
	}
	sortBy := r.URL.Query().Get("sort")
	switch sortBy {
	case "", qstore.SortSlowest, qstore.SortFrequent, qstore.SortQError:
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("unknown sort %q (want slowest, frequent or qerror)", sortBy))
		return
	}
	limit := 20
	if l := r.URL.Query().Get("limit"); l != "" {
		n, err := strconv.Atoi(l)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", l))
			return
		}
		limit = n
	}
	if sortBy == "" {
		sortBy = qstore.SortSlowest
	}
	top := st.Top(sortBy, limit)
	writeJSON(w, http.StatusOK, map[string]any{
		"sort":         sortBy,
		"count":        len(top),
		"fingerprints": top,
	})
}

// handleQStoreFingerprint serves one query shape's full history: the
// aggregate plus its recent records.
func (s *Server) handleQStoreFingerprint(w http.ResponseWriter, r *http.Request) {
	st := s.qstoreOr404(w)
	if st == nil {
		return
	}
	fp := strings.TrimPrefix(r.URL.Path, "/querystore/fingerprint/")
	if fp == "" || strings.Contains(fp, "/") {
		writeError(w, http.StatusBadRequest, fmt.Errorf("want /querystore/fingerprint/{id}"))
		return
	}
	agg, recs, ok := st.Fingerprint(fp)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{
			Error: fmt.Sprintf("unknown fingerprint %q", fp),
			Kind:  session.KindInvalid.String(),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"aggregate": agg,
		"records":   recs,
	})
}

// handleQStoreRegressions serves the drift-event feed, newest first — the
// machine-readable hook for adaptive planning.
func (s *Server) handleQStoreRegressions(w http.ResponseWriter, r *http.Request) {
	st := s.qstoreOr404(w)
	if st == nil {
		return
	}
	events := st.Regressions()
	writeJSON(w, http.StatusOK, map[string]any{
		"count":       len(events),
		"onsets":      st.RegressionCount(),
		"regressions": events,
	})
}

// handlePrometheus serves the registry's text exposition (Prometheus
// format 0.0.4). A server without a registry serves a valid empty body —
// scrapers see an up target with no series rather than an error. When the
// session fronts a worker cluster, the exposition is federated: the
// workers' last-shipped registry snapshots follow the coordinator's own
// series, re-rooted under gradoop_cluster_ and labeled per worker, so one
// scrape of the coordinator covers the whole cluster.
func (s *Server) handlePrometheus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, s.registry.Exposition())
	if ci := s.clusterIntrospector(); ci != nil {
		members := ci.WorkerMetrics()
		feds := make([]obs.FederatedSnapshot, 0, len(members))
		for _, m := range members {
			feds = append(feds, obs.FederatedSnapshot{Label: m.Node, Snap: m.Snap})
		}
		var sb strings.Builder
		obs.WriteFederated(&sb, "gradoop_cluster_", "worker", feds)
		io.WriteString(w, sb.String())
	}
}

// handleClusterWorkers serves the cluster roster: node names, liveness,
// heartbeat ages and per-worker job counts. 404 on an in-process session —
// the endpoint exists only where a cluster does.
func (s *Server) handleClusterWorkers(w http.ResponseWriter, r *http.Request) {
	ci := s.clusterIntrospector()
	if ci == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{
			Error: "not a cluster session (start with -cluster)",
			Kind:  session.KindInvalid.String(),
		})
		return
	}
	workers := ci.ClusterWorkers()
	writeJSON(w, http.StatusOK, map[string]any{
		"count":   len(workers),
		"workers": workers,
	})
}

// handleJobs lists the in-flight queries: canonical text, trace ID,
// queued/running state, elapsed time and — for running jobs — the current
// stage and, when traced, per-partition progress.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.session.Jobs()
	writeJSON(w, http.StatusOK, map[string]any{
		"count": len(jobs),
		"jobs":  jobs,
	})
}

// handleMetricsJSON reports service counters; ?format=text renders the CLI
// style, anything else JSON.
func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	m := s.session.Metrics()
	switch r.URL.Query().Get("format") {
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, m.Text())
	case "", "json":
		writeJSON(w, http.StatusOK, struct {
			session.Metrics
			PlanHitRatio   float64 `json:"planHitRatio"`
			ResultHitRatio float64 `json:"resultHitRatio"`
		}{m, m.PlanHitRatio(), m.ResultHitRatio()})
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown format %q (want text or json)", r.URL.Query().Get("format")))
	}
}

// handleHealthz reports liveness and the served graph's size.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	vertices, edges := s.session.GraphSize()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"vertices": vertices,
		"edges":    edges,
	})
}

// retryAfterSeconds is the backoff hint on overload responses (429 queue
// full, 503 memory budget). Both conditions clear as soon as in-flight work
// completes and releases its slot or its reservations, so the hint is short:
// clients should retry quickly with jitter rather than give up for long.
const retryAfterSeconds = 1

// writeSessionError maps a classified session error to its HTTP status.
// Overload statuses carry Retry-After: 429 (queue full) and 503 (killed by
// the memory budget — the query may be fine, the process was overloaded,
// and retrying after pressure clears can succeed, which is exactly what
// distinguishes it from a 500).
func writeSessionError(w http.ResponseWriter, r *http.Request, err error) {
	status := http.StatusInternalServerError
	kind := session.KindFailed
	var se *session.Error
	if errors.As(err, &se) {
		kind = se.Kind
		switch se.Kind {
		case session.KindInvalid:
			status = http.StatusBadRequest
		case session.KindRejected:
			status = http.StatusTooManyRequests
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		case session.KindTimeout:
			status = http.StatusGatewayTimeout
		case session.KindMemoryBudget:
			status = http.StatusServiceUnavailable
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		}
	}
	writeJSON(w, status, errorResponse{
		Error:   err.Error(),
		Kind:    kind.String(),
		TraceID: obs.TraceIDFrom(r.Context()),
	})
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error(), Kind: session.KindInvalid.String()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
