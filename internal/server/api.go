// Package server exposes a tsq.Server over HTTP/JSON: series CRUD, the
// three paper query kinds (range, nearest-neighbor, join) plus
// subsequence scans, raw query-language statements, and cost/health
// introspection. The same wire types back the Client used by
// `tsqcli --remote`.
package server

import (
	"time"

	tsq "repro"
)

// SeriesPayload is one named series on the wire.
type SeriesPayload struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
}

// InsertResponse acknowledges inserts.
type InsertResponse struct {
	Inserted int `json:"inserted"`
	Series   int `json:"series"`
}

// DeleteResponse acknowledges deletes.
type DeleteResponse struct {
	Deleted bool `json:"deleted"`
}

// NamesResponse lists stored series names.
type NamesResponse struct {
	Names []string `json:"names"`
}

// StatsPayload is one query execution's cost on the wire — the paper's
// per-query measures plus the cache marker.
type StatsPayload struct {
	ElapsedUS    float64 `json:"elapsed_us"`
	NodeAccesses int     `json:"node_accesses"`
	PageReads    int64   `json:"page_reads"`
	Candidates   int     `json:"candidates"`
	// HeadResolved is how many of Candidates were decided in the resident
	// spectrum heads, without opening the record's pages.
	HeadResolved int  `json:"head_resolved"`
	Cached       bool `json:"cached"`
	// RequestID is the execution's correlation ID: the same ID the
	// response's X-TSQ-Request-ID header and GET /traces carry for this
	// request. Only a failed request also writes it to the server's
	// "request failed" stderr line.
	RequestID string `json:"request_id,omitempty"`
	// Delta is the approximation slack the execution ran under (absent =
	// exact).
	Delta float64 `json:"delta,omitempty"`
}

func toStatsPayload(st tsq.Stats) StatsPayload {
	return StatsPayload{
		ElapsedUS:    float64(st.Elapsed) / float64(time.Microsecond),
		NodeAccesses: st.NodeAccesses,
		PageReads:    st.PageReads,
		Candidates:   st.Candidates,
		HeadResolved: st.HeadResolved,
		Cached:       st.Cached,
		RequestID:    st.RequestID,
		Delta:        st.Delta,
	}
}

// MatchPayload is one range/NN answer on the wire.
type MatchPayload struct {
	Name     string  `json:"name"`
	Distance float64 `json:"distance"`
}

// PairPayload is one join answer on the wire.
type PairPayload struct {
	A        string  `json:"a"`
	B        string  `json:"b"`
	Distance float64 `json:"distance"`
}

// SubseqMatchPayload is one subsequence-scan answer on the wire.
type SubseqMatchPayload struct {
	Name     string  `json:"name"`
	Offset   int     `json:"offset"`
	Distance float64 `json:"distance"`
}

// QueryRequest carries a raw query-language statement.
type QueryRequest struct {
	Q string `json:"q"`
}

// QueryResponse is the result of any query endpoint.
type QueryResponse struct {
	Kind    string         `json:"kind"`
	Matches []MatchPayload `json:"matches,omitempty"`
	Pairs   []PairPayload  `json:"pairs,omitempty"`
	Stats   StatsPayload   `json:"stats"`
	// Explain carries the execution plan of EXPLAIN-prefixed statements.
	Explain *tsq.ExplainInfo `json:"explain,omitempty"`
	// Trace carries the execution's span tree of TRACE-prefixed
	// statements.
	Trace *TracePayload `json:"trace,omitempty"`
}

// TracePayload is a TRACE statement's span tree on the wire.
type TracePayload struct {
	// TotalUS is the end-to-end engine wall time in microseconds.
	TotalUS float64       `json:"total_us"`
	Spans   []SpanPayload `json:"spans"`
}

// SpanPayload is one named span of an execution trace.
type SpanPayload struct {
	Name string `json:"name"`
	// Shard is the shard index of per-shard spans; -1 otherwise.
	Shard      int     `json:"shard"`
	DurationUS float64 `json:"duration_us"`
	// HeadResolved, on "search", "scan" and "shard" spans, is the
	// candidates the step verified without opening their pages.
	HeadResolved int           `json:"head_resolved,omitempty"`
	Children     []SpanPayload `json:"children,omitempty"`
}

func toSpanPayloads(spans []tsq.SpanInfo) []SpanPayload {
	if len(spans) == 0 {
		return nil
	}
	out := make([]SpanPayload, len(spans))
	for i, sp := range spans {
		out[i] = SpanPayload{
			Name:         sp.Name,
			Shard:        sp.Shard,
			DurationUS:   float64(sp.Duration) / float64(time.Microsecond),
			HeadResolved: sp.HeadResolved,
			Children:     toSpanPayloads(sp.Children),
		}
	}
	return out
}

func fromSpanPayloads(spans []SpanPayload) []tsq.SpanInfo {
	if len(spans) == 0 {
		return nil
	}
	out := make([]tsq.SpanInfo, len(spans))
	for i, sp := range spans {
		out[i] = tsq.SpanInfo{
			Name:         sp.Name,
			Shard:        sp.Shard,
			Duration:     time.Duration(sp.DurationUS * float64(time.Microsecond)),
			HeadResolved: sp.HeadResolved,
			Children:     fromSpanPayloads(sp.Children),
		}
	}
	return out
}

func toTracePayload(t *tsq.TraceInfo) *TracePayload {
	if t == nil {
		return nil
	}
	return &TracePayload{
		TotalUS: float64(t.Total) / float64(time.Microsecond),
		Spans:   toSpanPayloads(t.Spans),
	}
}

func fromTracePayload(t *TracePayload) *tsq.TraceInfo {
	if t == nil {
		return nil
	}
	return &tsq.TraceInfo{
		Total: time.Duration(t.TotalUS * float64(time.Microsecond)),
		Spans: fromSpanPayloads(t.Spans),
	}
}

// RangeRequest asks for all series within Eps of the query under the
// transformation. Exactly one of Series (a stored name) or Values (a
// literal series) must be set. Transform uses the query language's
// pipeline syntax (e.g. "mavg(20)", "reverse()|mavg(20)"); empty means
// identity. Using selects "auto" (the default: the planner chooses per
// query), "index", "scan", or "scantime".
type RangeRequest struct {
	Series    string      `json:"series,omitempty"`
	Values    []float64   `json:"values,omitempty"`
	Eps       float64     `json:"eps"`
	Transform string      `json:"transform,omitempty"`
	Both      bool        `json:"both,omitempty"`
	Using     string      `json:"using,omitempty"`
	Mean      *[2]float64 `json:"mean,omitempty"`
	Std       *[2]float64 `json:"std,omitempty"`
	// Delta > 0 runs the query approximately with a guaranteed (1+delta)
	// error bound (the APPROX clause of the query language).
	Delta float64 `json:"delta,omitempty"`
}

// NNRequest asks for the K nearest stored series.
type NNRequest struct {
	Series    string    `json:"series,omitempty"`
	Values    []float64 `json:"values,omitempty"`
	K         int       `json:"k"`
	Transform string    `json:"transform,omitempty"`
	Both      bool      `json:"both,omitempty"`
	Using     string    `json:"using,omitempty"`
	// Delta > 0 runs the query approximately with a guaranteed (1+delta)
	// error bound (the APPROX clause of the query language).
	Delta float64 `json:"delta,omitempty"`
}

// SelfJoinRequest asks for all within-eps pairs under one transformation.
// Method pins one of Table 1's "a", "b", "c", "d" with the paper's exact
// per-method accounting; empty defers the method to the planner (each
// qualifying pair reported once). Using optionally forces the planned
// mechanism ("auto", "index", "scan", "scantime") and is mutually
// exclusive with Method.
type SelfJoinRequest struct {
	Eps       float64 `json:"eps"`
	Transform string  `json:"transform,omitempty"`
	Method    string  `json:"method,omitempty"`
	Using     string  `json:"using,omitempty"`
}

// JoinRequest asks for the two-sided join: ordered pairs (x, y) with
// D(L(nf(x)), R(nf(y))) <= eps. Using selects the join method ("auto",
// the default: the planner chooses; "index", "scan", "scantime" force
// it).
type JoinRequest struct {
	Eps   float64 `json:"eps"`
	Left  string  `json:"left,omitempty"`
	Right string  `json:"right,omitempty"`
	Using string  `json:"using,omitempty"`
}

// SubseqRequest asks for stored series containing a window within Eps of
// Values (raw Euclidean distance).
type SubseqRequest struct {
	Values []float64 `json:"values"`
	Eps    float64   `json:"eps"`
}

// SubseqResponse is the subsequence endpoint's result.
type SubseqResponse struct {
	Matches []SubseqMatchPayload `json:"matches"`
	Stats   StatsPayload         `json:"stats"`
}

// AppendRequest carries points to append to a stored series (the window
// slides forward; see tsq.Server.Append).
type AppendRequest struct {
	Values []float64 `json:"values"`
}

// AppendResponse acknowledges an append.
type AppendResponse struct {
	// Appended is the number of points accepted.
	Appended int `json:"appended"`
	// Length is the (unchanged) series window length.
	Length int `json:"length"`
}

// MonitorRequest registers a standing query. Kind is "range" or "nn".
// Exactly one of Series (a stored name, snapshotted at registration) or
// Values must be set. Range monitors use Eps; NN monitors use K.
type MonitorRequest struct {
	Kind      string    `json:"kind"`
	Series    string    `json:"series,omitempty"`
	Values    []float64 `json:"values,omitempty"`
	Eps       float64   `json:"eps,omitempty"`
	K         int       `json:"k,omitempty"`
	Transform string    `json:"transform,omitempty"`
	Both      bool      `json:"both,omitempty"`
}

// MonitorResponse acknowledges a registration with the initial answer set.
type MonitorResponse struct {
	ID      int64          `json:"id"`
	Kind    string         `json:"kind"`
	Members []MatchPayload `json:"members"`
}

// MonitorInfoPayload describes one registered monitor.
type MonitorInfoPayload struct {
	ID       int64  `json:"id"`
	Kind     string `json:"kind"`
	Members  int    `json:"members"`
	Watchers int    `json:"watchers"`
	// Events is the monitor's replay-ring depth.
	Events int `json:"events"`
}

// MonitorsResponse lists the registered monitors.
type MonitorsResponse struct {
	Monitors []MonitorInfoPayload `json:"monitors"`
}

// RemoveResponse acknowledges a monitor removal.
type RemoveResponse struct {
	Removed bool `json:"removed"`
}

// WatchInit is the first SSE message of a watch stream ("init" event):
// the monitor's sequence number at subscription and — unless the stream
// resumed from a retained position, in which case the missed events follow
// as ordinary enter/leave events — the current membership snapshot.
type WatchInit struct {
	Monitor int64          `json:"monitor"`
	Seq     int64          `json:"seq"`
	Resumed bool           `json:"resumed,omitempty"`
	Members []MatchPayload `json:"members,omitempty"`
}

// WatchEvent is one membership change on the wire (SSE "enter"/"leave"
// events).
type WatchEvent struct {
	Monitor  int64   `json:"monitor"`
	Seq      int64   `json:"seq"`
	Kind     string  `json:"kind"`
	Name     string  `json:"name"`
	Distance float64 `json:"distance,omitempty"`
}

// HealthResponse reports liveness.
type HealthResponse struct {
	Status        string  `json:"status"`
	Series        int     `json:"series"`
	Length        int     `json:"length"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// StatsResponse reports the server's cumulative counters.
type StatsResponse struct {
	Series        int     `json:"series"`
	Length        int     `json:"length"`
	Shards        int     `json:"shards"`
	Queries       int64   `json:"queries"`
	Writes        int64   `json:"writes"`
	Appends       int64   `json:"appends"`
	Monitors      int     `json:"monitors"`
	CacheHits     int64   `json:"cache_hits"`
	CacheMisses   int64   `json:"cache_misses"`
	CacheLen      int     `json:"cache_len"`
	CacheCap      int     `json:"cache_cap"`
	NodeAccesses  int64   `json:"node_accesses"`
	PageReads     int64   `json:"page_reads"`
	Candidates    int64   `json:"candidates"`
	HeadResolved  int64   `json:"head_resolved"`
	ElapsedUS     float64 `json:"elapsed_us"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// TracesResponse is GET /traces: the retained execution traces matching
// the request's filters (newest first) plus the per-{kind,strategy}
// worst-recent index — the same entries the
// tsq_query_worst_recent_seconds metric family labels by request_id.
type TracesResponse struct {
	Worst  []WorstTracePayload `json:"worst,omitempty"`
	Traces []TraceEntryPayload `json:"traces"`
}

// TraceEntryPayload is one retained execution trace on the wire.
type TraceEntryPayload struct {
	RequestID string    `json:"request_id"`
	Kind      string    `json:"kind"`
	Strategy  string    `json:"strategy"`
	Outcome   string    `json:"outcome"`
	Query     string    `json:"query"`
	Err       string    `json:"error,omitempty"`
	When      time.Time `json:"when"`
	ElapsedUS float64   `json:"elapsed_us"`
	// Spans is the execution's full span tree — retained even when the
	// query did not ask for TRACE.
	Spans []SpanPayload `json:"spans,omitempty"`
}

// WorstTracePayload names the slowest retained execution of one
// {kind, strategy} family.
type WorstTracePayload struct {
	Kind      string    `json:"kind"`
	Strategy  string    `json:"strategy"`
	RequestID string    `json:"request_id"`
	ElapsedUS float64   `json:"elapsed_us"`
	When      time.Time `json:"when"`
}

// ProgressiveStagePayload is one SSE delivery of POST /query/progressive:
// the approximate stage ("approx" event, exact distances whose i-th is
// within (1+delta) of the exact i-th) followed by the exact refinement
// ("final" event).
type ProgressiveStagePayload struct {
	Phase  string        `json:"phase"`
	Final  bool          `json:"final,omitempty"`
	Result QueryResponse `json:"result"`
}

// ErrorResponse carries an error message, stamped with the failing
// request's correlation ID so the matching "request failed" line on the
// server's stderr and any retained error trace (GET /traces?outcome=error)
// are findable.
type ErrorResponse struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}
