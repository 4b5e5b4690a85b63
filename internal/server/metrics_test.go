package server_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	tsq "repro"
	"repro/internal/server"
	"repro/internal/telemetry"
)

func metricsClient(t *testing.T, shards int, opts tsq.ServerOptions) *server.Client {
	t.Helper()
	walks := tsq.RandomWalks(testCount, testLength, testSeed)
	db := tsq.MustOpen(tsq.Options{Length: testLength, Shards: shards})
	if err := db.InsertAll(walks); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(tsq.NewServer(db, opts)))
	t.Cleanup(ts.Close)
	return server.NewClient(ts.URL)
}

// scrape fetches /metrics and parses it with the strict exposition
// parser — an unparseable document fails the test.
func scrape(t *testing.T, c *server.Client) telemetry.Samples {
	t.Helper()
	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	samples, err := telemetry.ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("unparseable /metrics exposition: %v", err)
	}
	return samples
}

// anyWithPrefix reports whether some sample key starts with prefix
// (metric families carry labels, so exact keys vary by workload).
func anyWithPrefix(s telemetry.Samples, prefix string) bool {
	for k := range s {
		if strings.HasPrefix(k, prefix) {
			return true
		}
	}
	return false
}

// TestMetricsEndpoint drives a scripted workload through the HTTP API
// and checks /metrics: the exposition parses strictly, every expected
// family is present — query, cache, planner, shard, stream — and
// counters are monotone across scrapes.
func TestMetricsEndpoint(t *testing.T) {
	c := metricsClient(t, 2, tsq.ServerOptions{})

	const q = "RANGE SERIES 'W0003' EPS 2 TRANSFORM mavg(20)"
	if _, err := c.Query(q); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(q); err != nil { // repeat: cache hit
		t.Fatal(err)
	}
	if _, err := c.Query("NN SERIES 'W0004' K 3 TRANSFORM identity()"); err != nil {
		t.Fatal(err)
	}
	if err := c.Append("W0003", []float64{101.5}); err != nil {
		t.Fatal(err)
	}

	first := scrape(t, c)
	for _, family := range []string{
		"tsq_queries_total{",                        // query counts by kind × strategy × outcome
		"tsq_query_duration_seconds_",               // query latency histogram
		"tsq_cache_hits_total",                      // cache
		"tsq_cache_misses_total",                    //
		"tsq_plan_executions_total{",                // planner
		"tsq_plan_duration_seconds_",                //
		"tsq_shard_candidates_total{",               // per-shard fan-out provenance
		"tsq_appends_total",                         // stream
		"tsq_http_request_duration_seconds_bucket{", // HTTP surface
	} {
		if !anyWithPrefix(first, family) {
			t.Errorf("/metrics missing family %q", family)
		}
	}
	if got := first[telemetry.Key("tsq_series")]; got != testCount {
		t.Errorf("tsq_series = %v, want %d", got, testCount)
	}
	if got := first[telemetry.Key("tsq_shards")]; got != 2 {
		t.Errorf("tsq_shards = %v, want 2", got)
	}
	if first[telemetry.Key("tsq_cache_hits_total")] < 1 {
		t.Errorf("tsq_cache_hits_total = %v, want >= 1", first[telemetry.Key("tsq_cache_hits_total")])
	}
	// Label keys are emitted sorted (kind, outcome, strategy); the
	// strategy is the planner's to pick, so only pin kind and outcome.
	if !anyWithPrefix(first, "tsq_queries_total{kind=range,outcome=ok") {
		t.Error("no ok-outcome range sample in tsq_queries_total")
	}
	if !anyWithPrefix(first, "tsq_queries_total{kind=range,outcome=cached") {
		t.Error("no cached-outcome range sample in tsq_queries_total")
	}

	// More work, then a second scrape: every cumulative sample —
	// counters, histogram buckets, counts, sums — must be monotone.
	for i := 0; i < 5; i++ {
		stmt := fmt.Sprintf("RANGE SERIES 'W%04d' EPS 2 TRANSFORM mavg(10)", i)
		if _, err := c.Query(stmt); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Append("W0005", []float64{99.0, 99.5}); err != nil {
		t.Fatal(err)
	}
	second := scrape(t, c)
	for k, v := range first {
		cumulative := strings.Contains(k, "_total") ||
			strings.Contains(k, "_bucket") ||
			strings.Contains(k, "_count") ||
			strings.Contains(k, "_sum")
		if !cumulative {
			continue
		}
		after, ok := second[k]
		if !ok {
			t.Errorf("sample %s disappeared from the second scrape", k)
			continue
		}
		if after < v {
			t.Errorf("counter %s went backwards: %v -> %v", k, v, after)
		}
	}
	if second[telemetry.Key("tsq_appends_total")] <= first[telemetry.Key("tsq_appends_total")] {
		t.Errorf("tsq_appends_total did not advance: %v -> %v",
			first[telemetry.Key("tsq_appends_total")], second[telemetry.Key("tsq_appends_total")])
	}
}

// TestTraceOverHTTP checks the TRACE span tree survives the wire: engine
// → JSON payload → client Output, with per-shard timings intact.
func TestTraceOverHTTP(t *testing.T) {
	c := metricsClient(t, 4, tsq.ServerOptions{})

	out, err := c.QueryOutput("TRACE RANGE SERIES 'W0007' EPS 2 TRANSFORM mavg(20)")
	if err != nil {
		t.Fatal(err)
	}
	if out.Trace == nil {
		t.Fatal("TRACE over HTTP returned no trace")
	}
	if out.Trace.Total <= 0 {
		t.Fatalf("trace total = %v, want > 0", out.Trace.Total)
	}
	var fanout *tsq.SpanInfo
	for i := range out.Trace.Spans {
		if out.Trace.Spans[i].Name == "fanout" {
			fanout = &out.Trace.Spans[i]
		}
	}
	if fanout == nil {
		t.Fatalf("trace spans %v have no fanout", out.Trace.Spans)
	}
	if len(fanout.Children) != 4 {
		t.Fatalf("fanout has %d shard children, want 4", len(fanout.Children))
	}
	seen := map[int]bool{}
	for _, sh := range fanout.Children {
		if sh.Name != "shard" {
			t.Fatalf("fanout child named %q, want shard", sh.Name)
		}
		if sh.Shard < 0 || sh.Shard > 3 || seen[sh.Shard] {
			t.Fatalf("bad or repeated shard index %d", sh.Shard)
		}
		seen[sh.Shard] = true
		if sh.Duration < 0 {
			t.Fatalf("shard %d has negative duration", sh.Shard)
		}
	}

	// A plain statement carries no trace payload over the wire.
	plain, err := c.QueryOutput("RANGE SERIES 'W0007' EPS 2 TRANSFORM mavg(20)")
	if err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil {
		t.Fatal("plain statement returned a trace over HTTP")
	}
}

// exposedFamilies is every family /metrics exposes, each with the reader
// that consumes it: a tsqcli top row or a test.
// A family nobody reads is code to delete, not a row to add here.
var exposedFamilies = []struct{ family, reader string }{
	{"tsq_appends_total", "TestMetricsEndpoint"},
	{"tsq_approx_queries_total", "top: approx queries; TestCommandsAgainstAServer"},
	{"tsq_cache_hits_total", "TestMetricsEndpoint"},
	{"tsq_cache_misses_total", "TestMetricsEndpoint"},
	{"tsq_fanout_imbalance_ratio", "top: shard imbalance; TestTopPrintsShardImbalance"},
	{"tsq_http_request_duration_seconds", "TestMetricsEndpoint"},
	{"tsq_monitor_subscribers", "top: monitors row"},
	{"tsq_plan_cost_error_ratio", "top: planner drift"},
	{"tsq_plan_duration_seconds", "TestMetricsEndpoint"},
	{"tsq_plan_executions_total", "TestMetricsEndpoint"},
	{"tsq_pool_capacity_pages", "top: pool row; TestCommandsAgainstAServer"},
	{"tsq_pool_evictions_total", "top: pool row"},
	{"tsq_pool_hits_total", "top: pool row"},
	{"tsq_pool_misses_total", "top: pool row; TestCommandsAgainstAServer"},
	{"tsq_pool_pinned_pages", "top: pool row"},
	{"tsq_pool_resident_pages", "top: pool row"},
	{"tsq_queries_total", "top: kind table; TestCommandsAgainstAServer; TestForcedReadsAreObservable"},
	{"tsq_query_duration_seconds", "top: kind table p50/p95"},
	{"tsq_query_worst_recent_seconds", "top: worst recent; TestRequestCorrelationEndToEnd"},
	{"tsq_series", "TestMetricsEndpoint"},
	{"tsq_shard_candidates_total", "TestMetricsEndpoint"},
	{"tsq_shards", "TestMetricsEndpoint"},
	{"tsq_store_disk_backed", "top: pool row; this test"},
	{"tsq_watch_dropped_events_total", "top: monitors row"},
}

// hasSample reports whether family has a sample in s: one of its own or,
// for a histogram, of its _bucket, _sum or _count series.
func hasSample(s telemetry.Samples, family string) bool {
	for k := range s {
		name, _, _ := strings.Cut(k, "{")
		suffix, ok := strings.CutPrefix(name, family)
		if ok && (suffix == "" || suffix == "_bucket" || suffix == "_sum" || suffix == "_count") {
			return true
		}
	}
	return false
}

// TestMetricsFamiliesHaveReaders pins the exposition: after traffic that
// touches every kept family — range, NN and APPROX reads, an append, a
// monitor with a watcher — on a 4-shard disk-backed server, the families
// /metrics declares are exactly exposedFamilies, and each carries a sample.
func TestMetricsFamiliesHaveReaders(t *testing.T) {
	walks := tsq.RandomWalks(testCount, testLength, testSeed)
	db := tsq.MustOpen(tsq.Options{Length: testLength, Shards: 4, Backing: t.TempDir(), CachePages: 8})
	t.Cleanup(func() { db.Close() })
	if err := db.InsertAll(walks); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(tsq.NewServer(db, tsq.ServerOptions{})))
	t.Cleanup(ts.Close)
	c := server.NewClient(ts.URL)

	for _, q := range []string{
		"RANGE SERIES 'W0003' EPS 4 USING INDEX",
		"NN SERIES 'W0004' K 5",
		"RANGE SERIES 'W0005' EPS 4 APPROX 1",
		"NN SERIES 'W0006' K 5 APPROX 1",
	} {
		if _, err := c.Query(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	if err := c.Append("W0003", []float64{101.5}); err != nil {
		t.Fatal(err)
	}
	mon, err := c.CreateMonitor(server.MonitorRequest{Kind: "range", Series: "W0007", Eps: 2})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := c.Watch(context.Background(), mon.ID, -1)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()

	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			declared[f[2]] = true
		}
	}
	samples, err := telemetry.ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("unparseable /metrics exposition: %v", err)
	}
	want := map[string]bool{}
	for _, row := range exposedFamilies {
		want[row.family] = true
		if !declared[row.family] {
			t.Errorf("family %s (read by %s) is not exposed", row.family, row.reader)
		}
		if !hasSample(samples, row.family) {
			t.Errorf("family %s (read by %s) has no sample after the traffic", row.family, row.reader)
		}
	}
	for name := range declared {
		if !want[name] {
			t.Errorf("/metrics exposes %s, which has no reader in exposedFamilies", name)
		}
	}
	if got := samples[telemetry.Key("tsq_store_disk_backed")]; got != 1 {
		t.Errorf("tsq_store_disk_backed = %v on a disk-backed store, want 1", got)
	}
	if got := samples[telemetry.Key("tsq_monitor_subscribers")]; got != 1 {
		t.Errorf("tsq_monitor_subscribers = %v with one watcher, want 1", got)
	}
}
