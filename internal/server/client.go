package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	tsq "repro"
)

// Client talks to a tsqd server. The zero HTTPClient uses a 30-second
// timeout.
type Client struct {
	BaseURL    string
	HTTPClient *http.Client
}

// NewClient builds a client for a server base URL such as
// "http://localhost:8080".
func NewClient(baseURL string) *Client {
	return &Client{
		BaseURL:    strings.TrimRight(baseURL, "/"),
		HTTPClient: &http.Client{Timeout: 30 * time.Second},
	}
}

func (c *Client) do(method, path string, reqBody, respBody any) error {
	var body io.Reader
	if reqBody != nil {
		buf, err := json.Marshal(reqBody)
		if err != nil {
			return err
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, c.BaseURL+path, body)
	if err != nil {
		return err
	}
	if reqBody != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	hc := c.HTTPClient
	if hc == nil {
		hc = &http.Client{Timeout: 30 * time.Second}
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes+1))
	if err != nil {
		return err
	}
	if len(raw) > maxBodyBytes {
		return fmt.Errorf("server: response exceeds %d bytes", maxBodyBytes)
	}
	if resp.StatusCode >= 400 {
		var e ErrorResponse
		if json.Unmarshal(raw, &e) == nil && e.Error != "" {
			return fmt.Errorf("server: %s (HTTP %d)", e.Error, resp.StatusCode)
		}
		return fmt.Errorf("server: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	if respBody == nil {
		return nil
	}
	return json.Unmarshal(raw, respBody)
}

// Health fetches /healthz.
func (c *Client) Health() (*HealthResponse, error) {
	var out HealthResponse
	if err := c.do(http.MethodGet, "/healthz", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Stats fetches /stats.
func (c *Client) Stats() (*StatsResponse, error) {
	var out StatsResponse
	if err := c.do(http.MethodGet, "/stats", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Traces fetches retained execution traces from /traces. Empty filter
// fields are omitted; n <= 0 leaves the count at the server's default.
func (c *Client) Traces(id, kind, strategy, outcome string, n int) (*TracesResponse, error) {
	q := url.Values{}
	if id != "" {
		q.Set("id", id)
	}
	if kind != "" {
		q.Set("kind", kind)
	}
	if strategy != "" {
		q.Set("strategy", strategy)
	}
	if outcome != "" {
		q.Set("outcome", outcome)
	}
	if n > 0 {
		q.Set("n", strconv.Itoa(n))
	}
	path := "/traces"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var out TracesResponse
	if err := c.do(http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Metrics fetches the raw Prometheus text exposition from /metrics.
func (c *Client) Metrics() (string, error) {
	req, err := http.NewRequest(http.MethodGet, c.BaseURL+"/metrics", nil)
	if err != nil {
		return "", err
	}
	hc := c.HTTPClient
	if hc == nil {
		hc = &http.Client{Timeout: 30 * time.Second}
	}
	resp, err := hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes+1))
	if err != nil {
		return "", err
	}
	if resp.StatusCode >= 400 {
		return "", fmt.Errorf("server: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return string(raw), nil
}

// Names lists stored series names.
func (c *Client) Names() ([]string, error) {
	var out NamesResponse
	if err := c.do(http.MethodGet, "/series", nil, &out); err != nil {
		return nil, err
	}
	return out.Names, nil
}

// Insert stores one named series.
func (c *Client) Insert(name string, values []float64) error {
	return c.do(http.MethodPost, "/series", SeriesPayload{Name: name, Values: values}, nil)
}

// InsertBatch stores many series in one request, returning the server's
// new series count.
func (c *Client) InsertBatch(batch []tsq.NamedSeries) (int, error) {
	payload := make([]SeriesPayload, len(batch))
	for i, s := range batch {
		payload[i] = SeriesPayload{Name: s.Name, Values: s.Values}
	}
	var out InsertResponse
	if err := c.do(http.MethodPost, "/series/batch", payload, &out); err != nil {
		return 0, err
	}
	return out.Series, nil
}

// Series fetches the stored values for a name.
func (c *Client) Series(name string) ([]float64, error) {
	var out SeriesPayload
	if err := c.do(http.MethodGet, "/series/"+url.PathEscape(name), nil, &out); err != nil {
		return nil, err
	}
	return out.Values, nil
}

// Update replaces the values stored under an existing name.
func (c *Client) Update(name string, values []float64) error {
	return c.do(http.MethodPut, "/series/"+url.PathEscape(name), SeriesPayload{Values: values}, nil)
}

// Delete removes a series, reporting whether it was present.
func (c *Client) Delete(name string) (bool, error) {
	var out DeleteResponse
	if err := c.do(http.MethodDelete, "/series/"+url.PathEscape(name), nil, &out); err != nil {
		return false, err
	}
	return out.Deleted, nil
}

// Query sends one raw query-language statement.
func (c *Client) Query(q string) (*QueryResponse, error) {
	var out QueryResponse
	if err := c.do(http.MethodPost, "/query", QueryRequest{Q: q}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// QueryOutput runs Query and converts the response into the embedded
// library's Output type, so callers (tsqcli --remote) can treat local and
// remote execution identically. Elapsed is the server-side execution time.
func (c *Client) QueryOutput(q string) (*tsq.Output, error) {
	resp, err := c.Query(q)
	if err != nil {
		return nil, err
	}
	return OutputFromResponse(resp), nil
}

// OutputFromResponse converts a wire QueryResponse into the embedded
// library's Output type — the mapping QueryOutput and the progressive
// stream share.
func OutputFromResponse(resp *QueryResponse) *tsq.Output {
	out := &tsq.Output{
		Kind:    resp.Kind,
		Explain: resp.Explain,
		Trace:   fromTracePayload(resp.Trace),
		Stats: tsq.Stats{
			Elapsed:      time.Duration(resp.Stats.ElapsedUS * float64(time.Microsecond)),
			NodeAccesses: resp.Stats.NodeAccesses,
			PageReads:    resp.Stats.PageReads,
			Candidates:   resp.Stats.Candidates,
			HeadResolved: resp.Stats.HeadResolved,
			Cached:       resp.Stats.Cached,
			RequestID:    resp.Stats.RequestID,
			Delta:        resp.Stats.Delta,
		},
	}
	out.Matches = make([]tsq.Match, len(resp.Matches))
	for i, m := range resp.Matches {
		out.Matches[i] = tsq.Match{Name: m.Name, Distance: m.Distance}
	}
	out.Pairs = make([]tsq.Pair, len(resp.Pairs))
	for i, p := range resp.Pairs {
		out.Pairs[i] = tsq.Pair{A: p.A, B: p.B, Distance: p.Distance}
	}
	return out
}

// QueryProgressive runs a RANGE or NN statement progressively over
// POST /query/progressive: onStage is called once per SSE stage, in
// order — first the bounded approximate answer ("approximate"), then the
// exact refinement (Final true). A non-nil error from onStage abandons
// the stream. Blocks until the final stage, an error, or ctx ends.
func (c *Client) QueryProgressive(ctx context.Context, q string, onStage func(ProgressiveStagePayload) error) error {
	buf, err := json.Marshal(QueryRequest{Q: q})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/query/progressive", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "text/event-stream")
	// Streaming must not inherit the client's request timeout; reuse its
	// transport only.
	hc := &http.Client{}
	if c.HTTPClient != nil {
		hc.Transport = c.HTTPClient.Transport
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e ErrorResponse
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			return fmt.Errorf("server: %s (HTTP %d)", e.Error, resp.StatusCode)
		}
		return fmt.Errorf("server: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), maxBodyBytes)
	for {
		event, data, err := nextSSE(sc)
		if err != nil {
			return err
		}
		var stage ProgressiveStagePayload
		if err := json.Unmarshal(data, &stage); err != nil {
			return fmt.Errorf("server: bad %s payload: %w", event, err)
		}
		if err := onStage(stage); err != nil {
			return err
		}
		if stage.Final {
			return nil
		}
	}
}
