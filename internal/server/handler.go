package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	tsq "repro"
	"repro/internal/telemetry"
	"repro/internal/tlog"
)

// maxBodyBytes bounds request bodies; the largest legitimate payload is a
// bulk insert of a few thousand series.
const maxBodyBytes = 64 << 20

// New builds the HTTP handler serving s.
//
// Endpoints:
//
//	GET    /healthz               liveness + store size
//	GET    /metrics               Prometheus text exposition of the telemetry registry
//	GET    /stats                 cumulative cost counters (paper's measures);
//	                              ?plans=1 adds the recent executed-plan ring;
//	                              ?slow=1 adds the slow-query log with trace spans
//	GET    /traces                retained execution traces (tail-sampled: slowest,
//	                              most recent, and errors) with full span trees;
//	                              ?id= fetches one by request ID, ?kind=/?strategy=/
//	                              ?outcome=/?n= filter
//	GET    /logs                  in-memory log ring as NDJSON; ?n= and ?level= filter
//	GET    /series                stored names
//	POST   /series                insert one {"name": ..., "values": [...]}
//	POST   /series/batch          insert many [{"name": ..., "values": [...]}, ...]
//	GET    /series/{name}         fetch stored values
//	PUT    /series/{name}         replace values (reindexes)
//	POST   /series/{name}/append  slide the window forward {"values": [...]}
//	DELETE /series/{name}         remove
//	POST   /monitors              register a standing query (range or nn)
//	GET    /monitors              list registered monitors
//	DELETE /monitors/{id}         remove a monitor
//	GET    /watch?monitor=ID      SSE stream of enter/leave events
//	POST   /query                 raw query-language statement {"q": "RANGE ..."}
//	POST   /query/progressive     progressive RANGE/NN statement over SSE: an
//	                              "approx" stage (bounded approximate answer)
//	                              then the "final" exact refinement
//	POST   /query/range           typed range query
//	POST   /query/nn              typed k-NN query
//	POST   /query/selfjoin        typed self join (planned by default; Table 1 methods via "method")
//	POST   /query/join            typed two-sided join (planned by default)
//	POST   /query/subsequence     typed subsequence scan
func New(s *tsq.Server) http.Handler {
	h := &handler{s: s}
	mux := http.NewServeMux()
	handle := func(pattern string, fn http.HandlerFunc) {
		mux.HandleFunc(pattern, timed(pattern, fn))
	}
	handle("GET /healthz", h.health)
	handle("GET /metrics", h.metrics)
	handle("GET /stats", h.stats)
	handle("GET /traces", h.traces)
	handle("GET /logs", h.logs)
	handle("GET /series", h.names)
	handle("POST /series", h.insert)
	handle("POST /series/batch", h.insertBatch)
	handle("GET /series/{name}", h.getSeries)
	handle("PUT /series/{name}", h.update)
	handle("POST /series/{name}/append", h.append)
	handle("DELETE /series/{name}", h.delete)
	handle("POST /monitors", h.createMonitor)
	handle("GET /monitors", h.listMonitors)
	handle("DELETE /monitors/{id}", h.removeMonitor)
	// Long-lived SSE: a duration histogram would only record hangups, and
	// the statusWriter wrapper would hide http.Flusher — so /watch gets
	// only the request-ID stamp, not the timing wrapper.
	mux.HandleFunc("GET /watch", func(w http.ResponseWriter, r *http.Request) {
		r, _ = withRequestID(w, r)
		h.watch(w, r)
	})
	// Progressive queries stream two SSE stages; like /watch, the timing
	// wrapper would hide http.Flusher, so they get only the ID stamp.
	mux.HandleFunc("POST /query/progressive", func(w http.ResponseWriter, r *http.Request) {
		r, _ = withRequestID(w, r)
		h.progressive(w, r)
	})
	handle("POST /query", h.query)
	handle("POST /query/range", h.rangeQuery)
	handle("POST /query/nn", h.nnQuery)
	handle("POST /query/selfjoin", h.selfJoin)
	handle("POST /query/join", h.join)
	handle("POST /query/subsequence", h.subsequence)
	return mux
}

// timed wraps a handler with the correlation boundary: it adopts or mints
// the request ID (echoed on the response header and readable downstream
// via requestID), observes the per-route request-duration histogram, and
// emits one request-ID-stamped access line per request. The route label
// is the registered mux pattern, not the raw URL, so /series/{name} stays
// one series regardless of path cardinality.
func timed(route string, fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		r, id := withRequestID(w, r)
		sw := &statusWriter{ResponseWriter: w}
		fn(sw, r)
		elapsed := time.Since(start)
		if telemetry.Enabled() {
			telemetry.HistogramOf("tsq_http_request_duration_seconds", telemetry.LatencyBuckets,
				"route", route).Observe(elapsed.Seconds())
		}
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		tlog.Info("request",
			"method", r.Method,
			"route", route,
			"status", status,
			"duration_ms", float64(elapsed)/float64(time.Millisecond),
			"request_id", id)
	}
}

type handler struct {
	s *tsq.Server
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError sends a JSON error response stamped with the request's
// correlation ID and emits the matching error log line, so a failing
// request is findable in /logs by the ID the client received.
func writeError(w http.ResponseWriter, r *http.Request, status int, err error) {
	id := requestID(r)
	tlog.Error("request failed",
		"method", r.Method,
		"path", r.URL.Path,
		"status", status,
		"err", err,
		"request_id", id)
	writeJSON(w, status, ErrorResponse{Error: err.Error(), RequestID: id})
}

// writeEngineError maps engine errors onto HTTP statuses by their cause:
// missing series are 404, duplicate names 409, anything else (malformed
// transforms, bad parameters) 400.
func writeEngineError(w http.ResponseWriter, r *http.Request, err error) {
	msg := err.Error()
	switch {
	case strings.Contains(msg, "unknown series"):
		writeError(w, r, http.StatusNotFound, err)
	case strings.Contains(msg, "duplicate series"):
		writeError(w, r, http.StatusConflict, err)
	default:
		writeError(w, r, http.StatusBadRequest, err)
	}
}

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(v); err != nil {
		writeError(w, r, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	if dec.More() {
		writeError(w, r, http.StatusBadRequest, errors.New("bad request body: trailing data"))
		return false
	}
	return true
}

func (h *handler) health(w http.ResponseWriter, r *http.Request) {
	st := h.s.Stats()
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:        "ok",
		Series:        st.Series,
		Length:        st.Length,
		UptimeSeconds: st.Uptime.Seconds(),
	})
}

// metrics serves the Prometheus text exposition of the process-wide
// telemetry registry (scrape-time store gauges refreshed per request).
func (h *handler) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = h.s.WriteMetrics(w)
}

func (h *handler) stats(w http.ResponseWriter, r *http.Request) {
	st := h.s.Stats()
	var plans []PlanRecordPayload
	var drift []DriftPointPayload
	if r.URL.Query().Get("plans") == "1" {
		for _, d := range st.Drift {
			drift = append(drift, DriftPointPayload{
				Kind:    d.Kind,
				Seq:     d.Seq,
				Samples: d.Samples,
				P50:     d.P50,
				P95:     d.P95,
			})
		}
		plans = make([]PlanRecordPayload, len(st.Plans))
		for i, p := range st.Plans {
			plans[i] = PlanRecordPayload{
				Seq:                p.Seq,
				Kind:               p.Kind,
				Strategy:           p.Strategy,
				Method:             p.Method,
				Forced:             p.Forced,
				Reason:             p.Reason,
				Series:             p.Series,
				Shards:             p.Shards,
				EstCandidates:      p.EstCandidates,
				EstCost:            p.EstCost,
				ActualCandidates:   p.ActualCandidates,
				ActualNodeAccesses: p.ActualNodeAccesses,
				Results:            p.Results,
				ElapsedUS:          p.ElapsedUS,
			}
		}
	}
	var slow []SlowQueryPayload
	if r.URL.Query().Get("slow") == "1" {
		for _, q := range h.s.SlowQueries() {
			slow = append(slow, SlowQueryPayload{
				Query:     q.Query,
				When:      q.When,
				ElapsedUS: float64(q.Elapsed) / float64(time.Microsecond),
				Spans:     toSpanPayloads(q.Spans),
				RequestID: q.RequestID,
			})
		}
	}
	writeJSON(w, http.StatusOK, StatsResponse{
		Series:        st.Series,
		Length:        st.Length,
		Shards:        st.Shards,
		Queries:       st.Queries,
		Writes:        st.Writes,
		Appends:       st.Appends,
		Monitors:      st.Monitors,
		CacheHits:     st.CacheHits,
		CacheMisses:   st.CacheMisses,
		CacheLen:      st.CacheLen,
		CacheCap:      st.CacheCap,
		NodeAccesses:  st.NodeAccesses,
		PageReads:     st.PageReads,
		Candidates:    st.Candidates,
		HeadResolved:  st.HeadResolved,
		ElapsedUS:     float64(st.Elapsed.Microseconds()),
		UptimeSeconds: st.Uptime.Seconds(),
		Plans:         plans,
		Drift:         drift,
		Slow:          slow,
	})
}

func (h *handler) names(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, NamesResponse{Names: h.s.Names()})
}

func (h *handler) insert(w http.ResponseWriter, r *http.Request) {
	var req SeriesPayload
	if !decodeJSON(w, r, &req) {
		return
	}
	if err := h.s.Insert(req.Name, req.Values); err != nil {
		writeEngineError(w, r, err)
		return
	}
	writeJSON(w, http.StatusCreated, InsertResponse{Inserted: 1, Series: h.s.Len()})
}

func (h *handler) insertBatch(w http.ResponseWriter, r *http.Request) {
	var req []SeriesPayload
	if !decodeJSON(w, r, &req) {
		return
	}
	batch := make([]tsq.NamedSeries, len(req))
	for i, p := range req {
		batch[i] = tsq.NamedSeries{Name: p.Name, Values: p.Values}
	}
	if err := h.s.InsertAll(batch); err != nil {
		writeEngineError(w, r, err)
		return
	}
	writeJSON(w, http.StatusCreated, InsertResponse{Inserted: len(batch), Series: h.s.Len()})
}

func (h *handler) getSeries(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	values, err := h.s.Series(name)
	if err != nil {
		writeEngineError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, SeriesPayload{Name: name, Values: values})
}

func (h *handler) update(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req SeriesPayload
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Name != "" && req.Name != name {
		writeError(w, r, http.StatusBadRequest,
			fmt.Errorf("body name %q does not match path name %q", req.Name, name))
		return
	}
	if err := h.s.Update(name, req.Values); err != nil {
		writeEngineError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, InsertResponse{Inserted: 1, Series: h.s.Len()})
}

func (h *handler) delete(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, DeleteResponse{Deleted: h.s.Delete(r.PathValue("name"))})
}

func toQueryResponse(kind string, matches []tsq.Match, pairs []tsq.Pair, st tsq.Stats) *QueryResponse {
	resp := &QueryResponse{Kind: kind, Stats: toStatsPayload(st)}
	resp.Matches = make([]MatchPayload, len(matches))
	for i, m := range matches {
		resp.Matches[i] = MatchPayload{Name: m.Name, Distance: m.Distance, Bound: m.Bound}
	}
	resp.Pairs = make([]PairPayload, len(pairs))
	for i, p := range pairs {
		resp.Pairs[i] = PairPayload{A: p.A, B: p.B, Distance: p.Distance}
	}
	return resp
}

func (h *handler) query(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if strings.TrimSpace(req.Q) == "" {
		writeError(w, r, http.StatusBadRequest, errors.New("empty query"))
		return
	}
	out, err := h.s.Query(req.Q, tsq.WithRequest(requestID(r)))
	if err != nil {
		writeEngineError(w, r, err)
		return
	}
	resp := toQueryResponse(out.Kind, out.Matches, out.Pairs, out.Stats)
	resp.Explain = toExplainPayload(out.Explain)
	resp.Trace = toTracePayload(out.Trace)
	writeJSON(w, http.StatusOK, resp)
}

// progressive serves POST /query/progressive: the statement's approximate
// stage streams as an "approx" SSE event the moment it completes, then
// the exact refinement follows as the "final" event — the progressive
// delivery tier over the same SSE plumbing /watch uses.
func (h *handler) progressive(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if strings.TrimSpace(req.Q) == "" {
		writeError(w, r, http.StatusBadRequest, errors.New("empty query"))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, r, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	headersSent := false
	seq := int64(0)
	emit := func(stage tsq.ProgressiveStage) error {
		if !headersSent {
			w.Header().Set("Content-Type", "text/event-stream")
			w.Header().Set("Cache-Control", "no-cache")
			w.Header().Set("Connection", "keep-alive")
			w.WriteHeader(http.StatusOK)
			headersSent = true
		}
		out := stage.Output
		resp := toQueryResponse(out.Kind, out.Matches, out.Pairs, out.Stats)
		resp.Explain = toExplainPayload(out.Explain)
		resp.Trace = toTracePayload(out.Trace)
		event := "approx"
		if stage.Final {
			event = "final"
		}
		seq++
		writeSSE(w, event, seq, ProgressiveStagePayload{Phase: stage.Phase, Final: stage.Final, Result: *resp})
		flusher.Flush()
		return r.Context().Err()
	}
	if err := h.s.QueryProgressive(req.Q, emit, tsq.WithRequest(requestID(r))); err != nil && !headersSent {
		writeEngineError(w, r, err)
	}
}

func parseUsing(using string) ([]tsq.QueryOpt, error) {
	switch strings.ToLower(using) {
	case "", "auto":
		// The planner chooses per query; answers are identical under every
		// strategy, so auto is the service default.
		return []tsq.QueryOpt{tsq.With(tsq.UseAuto)}, nil
	case "index":
		return []tsq.QueryOpt{tsq.With(tsq.UseIndex)}, nil
	case "scan":
		return []tsq.QueryOpt{tsq.With(tsq.UseScan)}, nil
	case "scantime":
		return []tsq.QueryOpt{tsq.With(tsq.UseScanTime)}, nil
	default:
		return nil, fmt.Errorf("unknown strategy %q (want auto, index, scan, or scantime)", using)
	}
}

func (h *handler) rangeQuery(w http.ResponseWriter, r *http.Request) {
	var req RangeRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	t, err := tsq.ParseTransform(req.Transform)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	opts, err := parseUsing(req.Using)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	if req.Both {
		opts = append(opts, tsq.TransformBoth())
	}
	if req.Mean != nil {
		opts = append(opts, tsq.MeanRange(req.Mean[0], req.Mean[1]))
	}
	if req.Std != nil {
		opts = append(opts, tsq.StdRange(req.Std[0], req.Std[1]))
	}
	if req.Delta > 0 {
		opts = append(opts, tsq.WithApprox(req.Delta))
	}
	opts = append(opts, tsq.WithRequest(requestID(r)))
	var (
		matches []tsq.Match
		st      tsq.Stats
	)
	switch {
	case req.Series != "" && len(req.Values) > 0:
		writeError(w, r, http.StatusBadRequest, errors.New("set series or values, not both"))
		return
	case req.Series != "":
		matches, st, err = h.s.RangeByName(req.Series, req.Eps, t, opts...)
	case len(req.Values) > 0:
		matches, st, err = h.s.Range(req.Values, req.Eps, t, opts...)
	default:
		writeError(w, r, http.StatusBadRequest, errors.New("one of series or values is required"))
		return
	}
	if err != nil {
		writeEngineError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, toQueryResponse("RANGE", matches, nil, st))
}

func (h *handler) nnQuery(w http.ResponseWriter, r *http.Request) {
	var req NNRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	t, err := tsq.ParseTransform(req.Transform)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	opts, err := parseUsing(req.Using)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	if req.Both {
		opts = append(opts, tsq.TransformBoth())
	}
	if req.K < 1 {
		writeError(w, r, http.StatusBadRequest, errors.New("k must be a positive integer"))
		return
	}
	if req.Delta > 0 {
		opts = append(opts, tsq.WithApprox(req.Delta))
	}
	opts = append(opts, tsq.WithRequest(requestID(r)))
	var (
		matches []tsq.Match
		st      tsq.Stats
	)
	switch {
	case req.Series != "" && len(req.Values) > 0:
		writeError(w, r, http.StatusBadRequest, errors.New("set series or values, not both"))
		return
	case req.Series != "":
		matches, st, err = h.s.NNByName(req.Series, req.K, t, opts...)
	case len(req.Values) > 0:
		matches, st, err = h.s.NN(req.Values, req.K, t, opts...)
	default:
		writeError(w, r, http.StatusBadRequest, errors.New("one of series or values is required"))
		return
	}
	if err != nil {
		writeEngineError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, toQueryResponse("NN", matches, nil, st))
}

func parseJoinMethod(m string) (tsq.JoinMethod, error) {
	switch strings.ToLower(m) {
	case "a":
		return tsq.JoinScanNaive, nil
	case "b":
		return tsq.JoinScanEarlyAbandon, nil
	case "c":
		return tsq.JoinIndexPlain, nil
	case "d":
		return tsq.JoinIndexTransform, nil
	default:
		return 0, fmt.Errorf("unknown join method %q (want a, b, c, or d)", m)
	}
}

// parseJoinUsing maps a join Using value onto the library's strategy
// request vocabulary for the planned join path.
func parseJoinUsing(using string) (tsq.Strategy, error) {
	switch strings.ToLower(using) {
	case "", "auto":
		return tsq.UseAuto, nil
	case "index":
		return tsq.UseIndex, nil
	case "scan":
		return tsq.UseScan, nil
	case "scantime":
		return tsq.UseScanTime, nil
	default:
		return 0, fmt.Errorf("unknown strategy %q (want auto, index, scan, or scantime)", using)
	}
}

func (h *handler) selfJoin(w http.ResponseWriter, r *http.Request) {
	var req SelfJoinRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	t, err := tsq.ParseTransform(req.Transform)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	var (
		pairs []tsq.Pair
		st    tsq.Stats
	)
	switch {
	case req.Method != "" && req.Using != "":
		writeError(w, r, http.StatusBadRequest, errors.New("set method or using, not both"))
		return
	case req.Method != "":
		// Table 1 per-method semantics, pinned.
		method, merr := parseJoinMethod(req.Method)
		if merr != nil {
			writeError(w, r, http.StatusBadRequest, merr)
			return
		}
		pairs, st, err = h.s.SelfJoin(req.Eps, t, method, tsq.WithRequest(requestID(r)))
	default:
		// Planned: the planner chooses the method (or Using forces the
		// mechanism); each qualifying pair is reported once.
		strategy, serr := parseJoinUsing(req.Using)
		if serr != nil {
			writeError(w, r, http.StatusBadRequest, serr)
			return
		}
		pairs, st, err = h.s.SelfJoinPlanned(req.Eps, t, strategy, tsq.WithRequest(requestID(r)))
	}
	if err != nil {
		writeEngineError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, toQueryResponse("SELFJOIN", nil, pairs, st))
}

func (h *handler) join(w http.ResponseWriter, r *http.Request) {
	var req JoinRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	left, err := tsq.ParseTransform(req.Left)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	right, err := tsq.ParseTransform(req.Right)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	strategy, err := parseJoinUsing(req.Using)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	pairs, st, err := h.s.JoinTwoSidedPlanned(req.Eps, left, right, strategy, tsq.WithRequest(requestID(r)))
	if err != nil {
		writeEngineError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, toQueryResponse("JOIN", nil, pairs, st))
}

func (h *handler) subsequence(w http.ResponseWriter, r *http.Request) {
	var req SubseqRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if len(req.Values) == 0 {
		writeError(w, r, http.StatusBadRequest, errors.New("values are required"))
		return
	}
	matches, st, err := h.s.Subsequence(req.Values, req.Eps, tsq.WithRequest(requestID(r)))
	if err != nil {
		writeEngineError(w, r, err)
		return
	}
	resp := SubseqResponse{Stats: toStatsPayload(st)}
	resp.Matches = make([]SubseqMatchPayload, len(matches))
	for i, m := range matches {
		resp.Matches[i] = SubseqMatchPayload{Name: m.Name, Offset: m.Offset, Distance: m.Distance}
	}
	writeJSON(w, http.StatusOK, resp)
}
