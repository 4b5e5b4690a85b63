package server

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"time"

	tsq "repro"
	"repro/internal/flight"
)

// This file is the correlation layer: every request gets an ID at the
// server boundary (adopted from the caller's X-TSQ-Request-ID header or
// minted fresh), the same ID is stamped on the response header, the
// query's Stats, its retained flight-recorder trace and, when the request
// fails, its error body and its "request failed" line on stderr — so one
// ID read anywhere resolves to the same execution everywhere else
// (GET /traces and the tsq_query_worst_recent_seconds metric labels).

// requestIDHeader carries the correlation ID on the wire: adopted from
// the request when present and well-formed, always echoed on the
// response.
const requestIDHeader = "X-TSQ-Request-ID"

type ridKey struct{}

// withRequestID adopts or mints the request's correlation ID, stamps the
// response header, and returns the request with the ID in its context.
func withRequestID(w http.ResponseWriter, r *http.Request) (*http.Request, string) {
	id := r.Header.Get(requestIDHeader)
	if !validRequestID(id) {
		id = flight.NewID()
	}
	w.Header().Set(requestIDHeader, id)
	return r.WithContext(context.WithValue(r.Context(), ridKey{}, id)), id
}

// requestID returns the correlation ID stamped on this request ("" when
// the handler was not wrapped).
func requestID(r *http.Request) string {
	id, _ := r.Context().Value(ridKey{}).(string)
	return id
}

// validRequestID accepts caller-supplied IDs only when they are short and
// printable ASCII without quotes or backslashes, so adopted IDs stay safe
// in JSON log lines and Prometheus label values.
func validRequestID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c <= ' ' || c >= 0x7f || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}

// traces serves GET /traces: the flight recorder's retained execution
// traces (tail-sampled — per-{kind,strategy} slowest and most recent,
// plus every error), newest first, with full span trees. Filters: ?id=
// (one request ID), ?kind=, ?strategy=, ?outcome= (ok|error|cached),
// ?n= (max entries). The worst list mirrors the
// tsq_query_worst_recent_seconds metric family.
func (h *handler) traces(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	f := tsq.TraceFilter{
		RequestID: q.Get("id"),
		Kind:      q.Get("kind"),
		Strategy:  q.Get("strategy"),
		Outcome:   q.Get("outcome"),
	}
	if s := q.Get("n"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			writeError(w, r, http.StatusBadRequest, fmt.Errorf("bad n %q (want a positive integer)", s))
			return
		}
		f.N = n
	}
	entries := h.s.Traces(f)
	resp := TracesResponse{Traces: make([]TraceEntryPayload, len(entries))}
	for i, e := range entries {
		resp.Traces[i] = TraceEntryPayload{
			RequestID: e.RequestID,
			Kind:      e.Kind,
			Strategy:  e.Strategy,
			Outcome:   e.Outcome,
			Query:     e.Query,
			Err:       e.Err,
			When:      e.When,
			ElapsedUS: float64(e.Elapsed) / float64(time.Microsecond),
			Spans:     toSpanPayloads(e.Spans),
		}
	}
	for _, wt := range h.s.WorstTraces() {
		resp.Worst = append(resp.Worst, WorstTracePayload{
			Kind:      wt.Kind,
			Strategy:  wt.Strategy,
			RequestID: wt.RequestID,
			ElapsedUS: float64(wt.Elapsed) / float64(time.Microsecond),
			When:      wt.When,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}
