package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	tsq "repro"
	"repro/internal/server"
)

// newCorrelatedFixture serves a sharded DB; the flight recorder retains
// each query with its span tree.
func newCorrelatedFixture(t *testing.T) (*httptest.Server, *server.Client) {
	t.Helper()
	walks := tsq.RandomWalks(40, testLength, 13)
	db := tsq.MustOpen(tsq.Options{Length: testLength, Shards: 2})
	if err := db.InsertAll(walks); err != nil {
		t.Fatal(err)
	}
	srv := tsq.NewServer(db, tsq.ServerOptions{})
	ts := httptest.NewServer(server.New(srv))
	t.Cleanup(ts.Close)
	return ts, server.NewClient(ts.URL)
}

// postRaw posts JSON with optional headers and returns the response
// (headers intact) plus its body, without asserting the status.
func postRaw(t *testing.T, ts *httptest.Server, path string, body any, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// syncBuffer is a log destination the handler goroutines write to while
// the test reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// captureLog makes a JSON slog handler over a buffer the default logger
// for the rest of the test, as tsqd's is over stderr.
func captureLog(t *testing.T) *syncBuffer {
	t.Helper()
	buf := &syncBuffer{}
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewJSONHandler(buf, nil)))
	t.Cleanup(func() { slog.SetDefault(prev) })
	return buf
}

// logLines decodes every line of a captured log.
func logLines(t *testing.T, log string) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(log), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("log line is not one JSON object: %q: %v", line, err)
		}
		out = append(out, m)
	}
	return out
}

// worstRequestIDs extracts the request_id label values of the
// tsq_query_worst_recent_seconds family from a /metrics exposition.
func worstRequestIDs(metrics string) []string {
	var ids []string
	for _, line := range strings.Split(metrics, "\n") {
		if !strings.HasPrefix(line, "tsq_query_worst_recent_seconds{") {
			continue
		}
		if i := strings.Index(line, `request_id="`); i >= 0 {
			rest := line[i+len(`request_id="`):]
			if j := strings.IndexByte(rest, '"'); j >= 0 {
				ids = append(ids, rest[:j])
			}
		}
	}
	return ids
}

// TestRequestCorrelationEndToEnd: one query — with TRACE never requested
// — is resolvable by its request ID everywhere the flight-recorder layer
// touches: the X-TSQ-Request-ID response header, the response's stats,
// the retained trace with its full span tree behind /traces, and the
// request_id labels of the tsq_query_worst_recent_seconds metric family.
func TestRequestCorrelationEndToEnd(t *testing.T) {
	ts, client := newCorrelatedFixture(t)

	resp, raw := postRaw(t, ts, "/query/range", server.RangeRequest{
		Series: "W0003", Eps: 2.5, Transform: "mavg(20)",
	}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /query/range: HTTP %d: %s", resp.StatusCode, raw)
	}
	id := resp.Header.Get("X-TSQ-Request-ID")
	if id == "" {
		t.Fatal("response carries no X-TSQ-Request-ID header")
	}
	var qr server.QueryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Stats.RequestID != id {
		t.Fatalf("stats.request_id = %q, header = %q — want the same ID", qr.Stats.RequestID, id)
	}

	// The retained trace is fetchable by ID with its full span tree —
	// the query never asked for TRACE.
	traces, err := client.Traces(id, "", "", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces.Traces) != 1 {
		t.Fatalf("GET /traces?id=%s returned %d traces, want 1", id, len(traces.Traces))
	}
	tr := traces.Traces[0]
	if tr.RequestID != id || tr.Kind != "range" || tr.Outcome != "ok" {
		t.Fatalf("unexpected trace identity: %+v", tr)
	}
	if len(tr.Spans) == 0 {
		t.Fatal("retained trace has no spans")
	}
	if tr.Query == "" || tr.ElapsedUS <= 0 {
		t.Fatalf("incomplete trace: %+v", tr)
	}

	// The worst-recent index is populated and every entry resolves.
	if len(traces.Worst) == 0 {
		t.Fatal("worst-recent index is empty after a slow query")
	}
	for _, w := range traces.Worst {
		got, err := client.Traces(w.RequestID, "", "", "", 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Traces) == 0 {
			t.Fatalf("worst entry %s/%s names request %s with no retained trace", w.Kind, w.Strategy, w.RequestID)
		}
	}

	// The metric family links histograms to trace IDs: every request_id
	// label on tsq_query_worst_recent_seconds resolves via /traces.
	metrics, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	ids := worstRequestIDs(metrics)
	if len(ids) == 0 {
		t.Fatal("no tsq_query_worst_recent_seconds series with a request_id label in /metrics")
	}
	for _, mid := range ids {
		got, err := client.Traces(mid, "", "", "", 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Traces) == 0 {
			t.Fatalf("metric names request %s with no retained trace", mid)
		}
	}
}

// TestRequestIDAdoption checks the boundary rules: a well-formed
// caller-supplied X-TSQ-Request-ID is adopted end to end, a malformed one
// is replaced by a minted ID.
func TestRequestIDAdoption(t *testing.T) {
	ts, client := newCorrelatedFixture(t)

	const custom = "my-custom-id-42"
	resp, raw := postRaw(t, ts, "/query/range", server.RangeRequest{
		Series: "W0001", Eps: 2, Transform: "identity()",
	}, map[string]string{"X-TSQ-Request-ID": custom})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /query/range: HTTP %d: %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("X-TSQ-Request-ID"); got != custom {
		t.Fatalf("response header = %q, want the adopted %q", got, custom)
	}
	var qr server.QueryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Stats.RequestID != custom {
		t.Fatalf("stats.request_id = %q, want %q", qr.Stats.RequestID, custom)
	}
	traces, err := client.Traces(custom, "", "", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces.Traces) != 1 || traces.Traces[0].RequestID != custom {
		t.Fatalf("adopted ID %q not retained in /traces: %+v", custom, traces.Traces)
	}

	// A malformed ID (embedded spaces) must not poison logs or labels:
	// the server mints a fresh one instead.
	resp, _ = postRaw(t, ts, "/query/range", server.RangeRequest{
		Series: "W0002", Eps: 2, Transform: "identity()",
	}, map[string]string{"X-TSQ-Request-ID": "bad id with spaces"})
	minted := resp.Header.Get("X-TSQ-Request-ID")
	if minted == "" || minted == "bad id with spaces" {
		t.Fatalf("malformed supplied ID was not replaced (header %q)", minted)
	}
}

// TestErrorRequestCorrelation checks the error path: a failing query's
// JSON error body carries the request ID, the execution is retained by
// the flight recorder as an error trace, and the one "request failed" log
// line carries the same ID.
func TestErrorRequestCorrelation(t *testing.T) {
	ts, client := newCorrelatedFixture(t)
	log := captureLog(t)

	resp, raw := postRaw(t, ts, "/query", server.QueryRequest{
		Q: "RANGE SERIES 'NOPE' EPS 2 TRANSFORM identity()",
	}, nil)
	if resp.StatusCode < 400 {
		t.Fatalf("query over a missing series succeeded: HTTP %d: %s", resp.StatusCode, raw)
	}
	id := resp.Header.Get("X-TSQ-Request-ID")
	if id == "" {
		t.Fatal("error response carries no X-TSQ-Request-ID header")
	}
	var e server.ErrorResponse
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatal(err)
	}
	if e.Error == "" || e.RequestID != id {
		t.Fatalf("error body %+v, want error text and request_id %q", e, id)
	}

	traces, err := client.Traces("", "", "", "error", 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tr := range traces.Traces {
		if tr.RequestID == id {
			found = true
			if tr.Outcome != "error" || tr.Err == "" {
				t.Fatalf("error trace incomplete: %+v", tr)
			}
		}
	}
	if !found {
		t.Fatalf("failed request %s missing from /traces?outcome=error (%d entries)", id, len(traces.Traces))
	}

	// The error log line carries the same ID.
	lines := logLines(t, log.String())
	if len(lines) != 1 {
		t.Fatalf("%d log lines for one failed request, want 1:\n%s", len(lines), log.String())
	}
	l := lines[0]
	if l["msg"] != "request failed" || l["level"] != "ERROR" || l["request_id"] != id ||
		l["path"] != "/query" || l["status"] != float64(resp.StatusCode) || l["err"] != e.Error {
		t.Fatalf("log line %v, want a request failed line for %s with the error body's text", l, id)
	}
}

// TestSuccessWritesNoLogLine: a request that succeeds, read or write,
// writes no log line — the flight recorder and the per-route histogram
// are its record — while a failed one writes exactly its "request failed"
// line, so the capture is live.
func TestSuccessWritesNoLogLine(t *testing.T) {
	ts, client := newCorrelatedFixture(t)
	log := captureLog(t)

	if _, err := client.Health(); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Metrics(); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Traces("", "", "", "", 0); err != nil {
		t.Fatal(err)
	}
	vals, err := client.Series("W0001")
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Update("W0002", vals); err != nil {
		t.Fatal(err)
	}
	for path, body := range map[string]any{
		"/query/range": server.RangeRequest{Series: "W0003", Eps: 2.5, Transform: "mavg(20)"},
		"/query":       server.QueryRequest{Q: "NN SERIES 'W0004' K 3"},
	} {
		if resp, raw := postRaw(t, ts, path, body, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: HTTP %d: %s", path, resp.StatusCode, raw)
		}
	}
	if got := log.String(); got != "" {
		t.Fatalf("successful requests logged:\n%s", got)
	}

	resp, _ := postRaw(t, ts, "/query", server.QueryRequest{Q: "FROB"}, nil)
	lines := logLines(t, log.String())
	if len(lines) != 1 || lines[0]["request_id"] != resp.Header.Get("X-TSQ-Request-ID") {
		t.Fatalf("failed request wrote %d lines, want its one request failed line:\n%s", len(lines), log.String())
	}
}
