package tsq

import (
	"io"
	"strconv"
	"sync"
	"time"

	"repro/internal/flight"
	"repro/internal/telemetry"
)

// This file is the Server's observability surface (tsqtrace): the query
// counters and latency histograms the server layer feeds into the
// process-wide telemetry registry, the bounded slow-query log, and
// WriteMetrics — the Prometheus text exposition behind tsqd's
// GET /metrics. Engine- and planner-level metrics (plan executions,
// cost-model error, per-shard fan-out counters) are
// emitted by internal/core; this layer adds the session view: queries by
// kind/strategy/outcome, cache traffic, and scrape-time store gauges.

func init() {
	telemetry.Describe("tsq_queries_total",
		"Queries served, by kind, resolved strategy, and outcome (ok, error, cached).")
	telemetry.Describe("tsq_query_duration_seconds",
		"Server-side query wall time in seconds, cache hits included, by kind and strategy.")
	telemetry.Describe("tsq_cache_hits_total", "Result-cache hits.")
	telemetry.Describe("tsq_cache_misses_total", "Result-cache misses (each one runs the engine).")
	telemetry.Describe("tsq_cache_evictions_total",
		"Cached results evicted by writes, by reason (selective predicate test or whole-cache purge).")
	telemetry.Describe("tsq_appends_total", "Window-sliding appends committed.")
	telemetry.Describe("tsq_http_request_duration_seconds", "HTTP request wall time in seconds, by route.")
	telemetry.Describe("tsq_series", "Stored series.")
	telemetry.Describe("tsq_series_length", "Fixed series window length.")
	telemetry.Describe("tsq_shards", "Hash partitions of the store.")
	telemetry.Describe("tsq_cache_entries", "Result-cache entries currently held.")
	telemetry.Describe("tsq_cache_capacity", "Result-cache capacity.")
	telemetry.Describe("tsq_monitors", "Registered standing-query monitors.")
	telemetry.Describe("tsq_monitor_subscribers", "Live watcher subscriptions across all monitors.")
	telemetry.Describe("tsq_monitor_replay_events",
		"Events held in monitor replay rings for reconnecting watchers.")
	telemetry.Describe("tsq_uptime_seconds", "Seconds since the server started.")
	telemetry.Describe("tsq_watch_buffer_depth",
		"Buffered events per live watch subscription (scrape-time; capacity in tsq_watch_buffer_capacity).")
	telemetry.Describe("tsq_watch_buffer_capacity", "Event-buffer capacity per live watch subscription.")
	telemetry.Describe("tsq_query_worst_recent_seconds",
		"Slowest retained execution per kind and strategy; request_id links to its GET /traces entry.")
	telemetry.Describe("tsq_pool_hits_total", "Buffer-pool page hits across the store's relations (scrape-time).")
	telemetry.Describe("tsq_pool_misses_total", "Buffer-pool misses — physical page reads (scrape-time).")
	telemetry.Describe("tsq_pool_evictions_total", "Buffer-pool frames evicted to make room (scrape-time).")
	telemetry.Describe("tsq_pool_resident_pages", "Pages currently held in buffer-pool frames.")
	telemetry.Describe("tsq_pool_pinned_pages", "Buffer-pool frames pinned by in-flight reads.")
	telemetry.Describe("tsq_pool_capacity_pages", "Total buffer-pool frame capacity across relations.")
	telemetry.Describe("tsq_store_disk_backed", "1 when series/spectrum pages live in backing files, 0 for memory stores.")
}

// Fixed-label handles, resolved once: the query path is hot enough that
// per-call registry lookups (label-key building plus a map read) show up
// in the overhead benchmark.
var (
	mCacheHits   = telemetry.Count("tsq_cache_hits_total")
	mCacheMisses = telemetry.Count("tsq_cache_misses_total")
	mAppends     = telemetry.Count("tsq_appends_total")
)

// queryMetricCache memoizes the kind×strategy×outcome counter and
// histogram handles; the label space is a handful of combinations.
var queryMetricCache sync.Map // "kind\x00strategy\x00outcome" -> queryMetrics

type queryMetrics struct {
	count   *telemetry.Counter
	latency *telemetry.Histogram
}

// DefaultSlowThreshold is the slow-query log threshold used when
// ServerOptions.SlowThreshold is zero.
const DefaultSlowThreshold = 25 * time.Millisecond

// slowLogCap bounds the in-memory slow-query log; the newest entries win.
const slowLogCap = 32

// SlowQuery is one retained slow-query log entry: a query whose
// server-side wall time crossed the slow threshold, with its trace spans
// so the slow part (plan, a lagging shard, the merge, cache tagging) is
// identifiable after the fact. Exposed via Server.SlowQueries and
// GET /stats?slow=1.
type SlowQuery struct {
	// Query is the query's cache key (typed queries) or statement text
	// (query-language and EXPLAIN/TRACE statements).
	Query   string
	When    time.Time
	Elapsed time.Duration
	Spans   []SpanInfo
	// RequestID is the query's correlation ID — the same ID its Stats,
	// its retained flight-recorder trace, and its log lines carry.
	RequestID string
}

// slowRecord retains one slow query, dropping the oldest entry when the
// log is full. No-op when the threshold is disabled or not crossed.
func (s *Server) slowRecord(query string, elapsed time.Duration, spans []SpanInfo, reqID string) {
	if s.slowThreshold <= 0 || elapsed < s.slowThreshold {
		return
	}
	e := SlowQuery{Query: query, When: time.Now(), Elapsed: elapsed, Spans: spans, RequestID: reqID}
	s.slowMu.Lock()
	if len(s.slow) >= slowLogCap {
		copy(s.slow, s.slow[1:])
		s.slow = s.slow[:slowLogCap-1]
	}
	s.slow = append(s.slow, e)
	s.slowMu.Unlock()
}

// SlowQueries returns the retained slow-query log, oldest first.
func (s *Server) SlowQueries() []SlowQuery {
	s.slowMu.Lock()
	defer s.slowMu.Unlock()
	out := make([]SlowQuery, len(s.slow))
	copy(out, s.slow)
	return out
}

// observeQuery feeds one served query into the registry. outcome is "ok",
// "error", or "cached"; an empty strategy (errors, method-pinned joins,
// subsequence scans) is labeled "none".
func observeQuery(kind, strategy, outcome string, elapsed time.Duration) {
	if !telemetry.Enabled() {
		return
	}
	if strategy == "" {
		strategy = "none"
	}
	key := kind + "\x00" + strategy + "\x00" + outcome
	v, ok := queryMetricCache.Load(key)
	if !ok {
		v, _ = queryMetricCache.LoadOrStore(key, queryMetrics{
			count: telemetry.Count("tsq_queries_total",
				"kind", kind, "strategy", strategy, "outcome", outcome),
			latency: telemetry.HistogramOf("tsq_query_duration_seconds", telemetry.LatencyBuckets,
				"kind", kind, "strategy", strategy),
		})
	}
	m := v.(queryMetrics)
	m.count.Inc()
	m.latency.Observe(elapsed.Seconds())
}

// flightRecord retains one execution in the flight recorder. outcome is
// "ok", "error", or "cached"; errMsg is empty unless outcome is "error".
// No-op when trace retention is disabled.
func (s *Server) flightRecord(reqID, kind, strategy, outcome, query, errMsg string, elapsed time.Duration, spans []SpanInfo) {
	if s.flight == nil {
		return
	}
	if strategy == "" {
		strategy = "none"
	}
	s.flight.Observe(flight.Entry[[]SpanInfo]{
		ID:       reqID,
		Kind:     kind,
		Strategy: strategy,
		Outcome:  outcome,
		Query:    query,
		Err:      errMsg,
		When:     time.Now(),
		Elapsed:  elapsed,
		Spans:    spans,
	})
}

// TraceEntry is one retained execution trace from the flight recorder:
// the request's correlation ID, classification, and full span tree.
// Retention is tail-sampled — per-{kind,strategy} slowest-N and
// most-recent-N, plus every error — so the interesting executions are
// fetchable after the fact without TRACE having been requested.
type TraceEntry struct {
	RequestID string
	Kind      string
	Strategy  string
	// Outcome is "ok", "error", or "cached".
	Outcome string
	// Query is the cache key or statement text that identifies the query.
	Query string
	// Err is the error message for error-outcome entries.
	Err     string
	When    time.Time
	Elapsed time.Duration
	Spans   []SpanInfo
}

// TraceFilter narrows Server.Traces. Zero fields match everything;
// N bounds the result count (0 = recorder default).
type TraceFilter struct {
	RequestID string
	Kind      string
	Strategy  string
	Outcome   string
	N         int
}

// WorstTrace names the slowest retained execution for one
// {kind, strategy} family; RequestID links it to its full TraceEntry.
type WorstTrace struct {
	Kind      string
	Strategy  string
	RequestID string
	Elapsed   time.Duration
	When      time.Time
}

func traceFromFlight(e flight.Entry[[]SpanInfo]) TraceEntry {
	return TraceEntry{
		RequestID: e.ID,
		Kind:      e.Kind,
		Strategy:  e.Strategy,
		Outcome:   e.Outcome,
		Query:     e.Query,
		Err:       e.Err,
		When:      e.When,
		Elapsed:   e.Elapsed,
		Spans:     e.Spans,
	}
}

// Traces returns retained execution traces matching f, newest first.
// Nil when trace retention is disabled.
func (s *Server) Traces(f TraceFilter) []TraceEntry {
	if s.flight == nil {
		return nil
	}
	entries := s.flight.Traces(flight.Filter{
		ID:       f.RequestID,
		Kind:     f.Kind,
		Strategy: f.Strategy,
		Outcome:  f.Outcome,
		N:        f.N,
	})
	out := make([]TraceEntry, len(entries))
	for i, e := range entries {
		out[i] = traceFromFlight(e)
	}
	return out
}

// TraceByID fetches one retained trace by its request ID.
func (s *Server) TraceByID(id string) (TraceEntry, bool) {
	if s.flight == nil {
		return TraceEntry{}, false
	}
	e, ok := s.flight.Get(id)
	if !ok {
		return TraceEntry{}, false
	}
	return traceFromFlight(e), true
}

// WorstTraces reports the slowest retained execution per
// {kind, strategy} family — the entries behind the
// tsq_query_worst_recent_seconds metric.
func (s *Server) WorstTraces() []WorstTrace {
	if s.flight == nil {
		return nil
	}
	ws := s.flight.WorstRecent()
	out := make([]WorstTrace, len(ws))
	for i, w := range ws {
		out[i] = WorstTrace{Kind: w.Kind, Strategy: w.Strategy, RequestID: w.ID, Elapsed: w.Elapsed, When: w.When}
	}
	return out
}

// withCacheTag appends the server-side "cache-tag" span — the time spent
// building/checking the entry's dependency tag and landing it in the
// cache — to a copy of the execution's span slice, so the cached entry's
// own spans stay untouched.
func withCacheTag(st Stats, d time.Duration) Stats {
	spans := make([]SpanInfo, 0, len(st.Spans)+1)
	spans = append(spans, st.Spans...)
	spans = append(spans, SpanInfo{Name: "cache-tag", Shard: -1, Duration: d})
	st.Spans = spans
	return st
}

// WriteMetrics renders the process-wide telemetry registry in the
// Prometheus text exposition format (version 0.0.4), refreshing the
// scrape-time store gauges first. This is the body of tsqd's
// GET /metrics; embedded programs can serve it from any handler.
func (s *Server) WriteMetrics(w io.Writer) error {
	telemetry.GaugeOf("tsq_series").Set(float64(s.db.Len()))
	telemetry.GaugeOf("tsq_series_length").Set(float64(s.db.Length()))
	telemetry.GaugeOf("tsq_shards").Set(float64(s.db.Shards()))
	_, _, cached := s.cache.counts()
	telemetry.GaugeOf("tsq_cache_entries").Set(float64(cached))
	telemetry.GaugeOf("tsq_cache_capacity").Set(float64(s.cache.capacity))
	infos := s.hub.List()
	subs, events := 0, 0
	for _, in := range infos {
		subs += in.Subs
		events += in.Events
	}
	telemetry.GaugeOf("tsq_monitors").Set(float64(len(infos)))
	telemetry.GaugeOf("tsq_monitor_subscribers").Set(float64(subs))
	telemetry.GaugeOf("tsq_monitor_replay_events").Set(float64(events))
	telemetry.GaugeOf("tsq_uptime_seconds").Set(time.Since(s.started).Seconds())
	ps := s.db.PoolStats()
	telemetry.GaugeOf("tsq_pool_hits_total").Set(float64(ps.Hits))
	telemetry.GaugeOf("tsq_pool_misses_total").Set(float64(ps.Misses))
	telemetry.GaugeOf("tsq_pool_evictions_total").Set(float64(ps.Evictions))
	telemetry.GaugeOf("tsq_pool_resident_pages").Set(float64(ps.Resident))
	telemetry.GaugeOf("tsq_pool_pinned_pages").Set(float64(ps.Pinned))
	telemetry.GaugeOf("tsq_pool_capacity_pages").Set(float64(ps.Capacity))
	diskBacked := 0.0
	if ps.DiskBacked {
		diskBacked = 1
	}
	telemetry.GaugeOf("tsq_store_disk_backed").Set(diskBacked)
	// Per-subscriber and worst-recent families are rebuilt from scratch
	// each scrape: their label sets (monitor/sub IDs, trace request IDs)
	// churn, and stale series would otherwise accumulate forever.
	telemetry.Reset("tsq_watch_buffer_depth")
	telemetry.Reset("tsq_watch_buffer_capacity")
	for _, si := range s.hub.SubInfos() {
		mon := strconv.FormatInt(si.Monitor, 10)
		sub := strconv.FormatInt(si.Sub, 10)
		telemetry.GaugeOf("tsq_watch_buffer_depth", "monitor", mon, "sub", sub).Set(float64(si.Depth))
		telemetry.GaugeOf("tsq_watch_buffer_capacity", "monitor", mon, "sub", sub).Set(float64(si.Cap))
	}
	telemetry.Reset("tsq_query_worst_recent_seconds")
	for _, wt := range s.WorstTraces() {
		telemetry.GaugeOf("tsq_query_worst_recent_seconds",
			"kind", wt.Kind, "strategy", wt.Strategy, "request_id", wt.RequestID).
			Set(wt.Elapsed.Seconds())
	}
	return telemetry.Default.WritePrometheus(w)
}
