package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/server"
	"repro/internal/telemetry"
)

// This file implements the live observability subcommands: `top`, a
// refreshing console dashboard fed by /metrics and /stats, and `traces`,
// the command-line view of the server's flight recorder (GET /traces).

// runTraces fetches retained execution traces — the tail-sampled
// slowest/most-recent/error set the server keeps per {kind, strategy} —
// and prints them with their span trees. -id fetches one trace by the
// request ID found in a slow-log entry, an error response, a log line,
// or a tsq_query_worst_recent_seconds label.
func runTraces(remote string, args []string) error {
	if remote == "" {
		return fmt.Errorf("traces requires -remote")
	}
	fs := flag.NewFlagSet("traces", flag.ContinueOnError)
	var (
		id       = fs.String("id", "", "fetch one trace by request ID")
		kind     = fs.String("kind", "", "filter by query kind (range, nn, join, ...)")
		strategy = fs.String("strategy", "", "filter by resolved strategy (index, scan, ...)")
		outcome  = fs.String("outcome", "", "filter by outcome: ok, error, or cached")
		n        = fs.Int("n", 0, "max entries to fetch (0 = server default)")
		noSpans  = fs.Bool("nospans", false, "omit span trees")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	client := server.NewClient(remote)
	resp, err := client.Traces(*id, *kind, *strategy, *outcome, *n)
	if err != nil {
		return err
	}
	if *id == "" && len(resp.Worst) > 0 {
		fmt.Println("worst recent per {kind, strategy}:")
		for _, w := range resp.Worst {
			fmt.Printf("  %-8s via %-8s %8.2f ms  id %s\n",
				w.Kind, w.Strategy, w.ElapsedUS/1000, w.RequestID)
		}
	}
	if len(resp.Traces) == 0 {
		fmt.Println("no retained traces match")
		return nil
	}
	fmt.Printf("%d retained trace(s), newest first:\n", len(resp.Traces))
	for _, t := range resp.Traces {
		errs := ""
		if t.Err != "" {
			errs = "  error: " + t.Err
		}
		fmt.Printf("  %s  %-8s via %-8s %-6s %8.2f ms  id %s%s\n",
			t.When.Format("15:04:05"), t.Kind, t.Strategy, t.Outcome,
			t.ElapsedUS/1000, t.RequestID, errs)
		fmt.Printf("    query: %s\n", t.Query)
		if !*noSpans {
			printSpanPayloads(t.Spans, 2)
		}
	}
	return nil
}

// sampleRow is one parsed /metrics sample with its labels intact.
type sampleRow struct {
	name   string
	labels map[string]string
	value  float64
}

// snapshot is one dashboard refresh: every /metrics sample (keyed for
// delta computation against the previous frame) plus the /stats payload.
type snapshot struct {
	at    time.Time
	rows  []sampleRow
	byKey map[string]float64
	stats *server.StatsResponse
}

func takeSnapshot(client *server.Client) (*snapshot, error) {
	text, err := client.Metrics()
	if err != nil {
		return nil, err
	}
	snap := &snapshot{at: time.Now(), byKey: make(map[string]float64)}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, labels, v, err := telemetry.ParseLine(line)
		if err != nil {
			return nil, fmt.Errorf("bad /metrics line: %w", err)
		}
		flat := make([]string, 0, 2*len(labels))
		for k, val := range labels {
			flat = append(flat, k, val)
		}
		snap.rows = append(snap.rows, sampleRow{name: name, labels: labels, value: v})
		snap.byKey[telemetry.Key(name, flat...)] = v
	}
	if snap.stats, err = client.Stats(); err != nil {
		return nil, err
	}
	return snap, nil
}

// delta returns how much a counter sample grew since the previous frame
// (its full value when there is no previous frame — the cumulative view
// `top -once` prints).
func (s *snapshot) delta(prev *snapshot, row sampleRow) float64 {
	if prev == nil {
		return row.value
	}
	flat := make([]string, 0, 2*len(row.labels))
	for k, v := range row.labels {
		flat = append(flat, k, v)
	}
	return row.value - prev.byKey[telemetry.Key(row.name, flat...)]
}

// histPercentile returns the q-quantile's upper bucket bound from
// cumulative-per-le bucket counts (the Prometheus histogram layout).
func histPercentile(les []float64, counts map[float64]float64, q float64) float64 {
	total := counts[math.Inf(1)]
	if total <= 0 {
		return 0
	}
	rank := q * total
	best := 0.0
	for _, le := range les {
		if counts[le] >= rank {
			return le
		}
		if !math.IsInf(le, 1) {
			best = le
		}
	}
	return best
}

// kindLatency aggregates tsq_query_duration_seconds buckets by kind
// (summing across strategies), as frame deltas.
func kindLatency(cur, prev *snapshot) (map[string]map[float64]float64, map[string][]float64) {
	counts := make(map[string]map[float64]float64)
	lesSeen := make(map[string]map[float64]bool)
	for _, row := range cur.rows {
		if row.name != "tsq_query_duration_seconds_bucket" {
			continue
		}
		kind := row.labels["kind"]
		le, err := parseLE(row.labels["le"])
		if err != nil {
			continue
		}
		if counts[kind] == nil {
			counts[kind] = make(map[float64]float64)
			lesSeen[kind] = make(map[float64]bool)
		}
		counts[kind][le] += cur.delta(prev, row)
		lesSeen[kind][le] = true
	}
	les := make(map[string][]float64)
	for kind, set := range lesSeen {
		for le := range set {
			les[kind] = append(les[kind], le)
		}
		sort.Float64s(les[kind])
	}
	return counts, les
}

func parseLE(s string) (float64, error) {
	if s == "+Inf" {
		return math.Inf(1), nil
	}
	var v float64
	_, err := fmt.Sscanf(s, "%g", &v)
	return v, err
}

// renderFrame prints one dashboard frame. With prev == nil the counters
// are cumulative since server start; otherwise they are per-interval.
func renderFrame(remote string, cur, prev *snapshot) {
	st := cur.stats
	dt := 0.0
	if prev != nil {
		dt = cur.at.Sub(prev.at).Seconds()
	}

	mode := "cumulative since start"
	if prev != nil {
		mode = fmt.Sprintf("last %.1fs", dt)
	}
	fmt.Printf("tsq top — %s — %s (%s)\n", remote, time.Now().Format("15:04:05"), mode)
	fmt.Printf("series %d (length %d, %d shard(s)), uptime %.0fs\n",
		st.Series, st.Length, st.Shards, st.UptimeSeconds)

	// Query traffic and latency per kind.
	qcount := make(map[string]float64)
	for _, row := range cur.rows {
		if row.name == "tsq_queries_total" {
			qcount[row.labels["kind"]] += cur.delta(prev, row)
		}
	}
	kinds := make([]string, 0, len(qcount))
	for k := range qcount {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	counts, les := kindLatency(cur, prev)
	if len(kinds) == 0 {
		fmt.Println("no queries observed yet")
	} else {
		if prev != nil {
			fmt.Printf("  %-10s %9s %10s %10s\n", "kind", "qps", "p50 ms", "p95 ms")
		} else {
			fmt.Printf("  %-10s %9s %10s %10s\n", "kind", "queries", "p50 ms", "p95 ms")
		}
		for _, k := range kinds {
			rate := qcount[k]
			if prev != nil && dt > 0 {
				rate /= dt
			}
			p50 := histPercentile(les[k], counts[k], 0.50) * 1000
			p95 := histPercentile(les[k], counts[k], 0.95) * 1000
			fmt.Printf("  %-10s %9.1f %10.2f %10.2f\n", k, rate, p50, p95)
		}
	}

	// Cache.
	hitRate := 0.0
	if st.CacheHits+st.CacheMisses > 0 {
		hitRate = 100 * float64(st.CacheHits) / float64(st.CacheHits+st.CacheMisses)
	}
	fmt.Printf("cache: %.1f%% hit (%d hits / %d misses), %d/%d entries\n",
		hitRate, st.CacheHits, st.CacheMisses, st.CacheLen, st.CacheCap)

	// Planner drift: mean |actual-est|/max(est,1) per kind.
	driftSum, driftCount := make(map[string]float64), make(map[string]float64)
	for _, row := range cur.rows {
		switch row.name {
		case "tsq_plan_cost_error_ratio_sum":
			driftSum[row.labels["kind"]] += cur.delta(prev, row)
		case "tsq_plan_cost_error_ratio_count":
			driftCount[row.labels["kind"]] += cur.delta(prev, row)
		}
	}
	var driftParts []string
	dkinds := make([]string, 0, len(driftCount))
	for k := range driftCount {
		dkinds = append(dkinds, k)
	}
	sort.Strings(dkinds)
	for _, k := range dkinds {
		if driftCount[k] > 0 {
			driftParts = append(driftParts, fmt.Sprintf("%s %.2f", k, driftSum[k]/driftCount[k]))
		}
	}
	if len(driftParts) > 0 {
		fmt.Printf("planner drift |actual-est|/max(est,1): %s\n", strings.Join(driftParts, "  "))
	}

	// Approximate tier: APPROX executions and realized bound tightness
	// (mean LB/UB of early-accepted candidates; 1.0 = bounds met exactly).
	apxCount := make(map[string]float64)
	tightSum, tightCount := make(map[string]float64), make(map[string]float64)
	for _, row := range cur.rows {
		switch row.name {
		case "tsq_approx_queries_total":
			apxCount[row.labels["kind"]] += cur.delta(prev, row)
		case "tsq_approx_bound_tightness_sum":
			tightSum[row.labels["kind"]] += cur.delta(prev, row)
		case "tsq_approx_bound_tightness_count":
			tightCount[row.labels["kind"]] += cur.delta(prev, row)
		}
	}
	akinds := make([]string, 0, len(apxCount))
	for k := range apxCount {
		akinds = append(akinds, k)
	}
	sort.Strings(akinds)
	var apxParts []string
	for _, k := range akinds {
		if apxCount[k] <= 0 {
			continue
		}
		part := fmt.Sprintf("%s %.0f", k, apxCount[k])
		if tightCount[k] > 0 {
			part += fmt.Sprintf(" (tightness %.2f)", tightSum[k]/tightCount[k])
		}
		apxParts = append(apxParts, part)
	}
	if len(apxParts) > 0 {
		fmt.Printf("approx queries: %s\n", strings.Join(apxParts, "  "))
	}

	// Shard imbalance: mean max/mean candidate ratio of fan-out runs.
	imbSum := cur.byKey["tsq_fanout_imbalance_ratio_sum"]
	imbCount := cur.byKey["tsq_fanout_imbalance_ratio_count"]
	if prev != nil {
		imbSum -= prev.byKey["tsq_fanout_imbalance_ratio_sum"]
		imbCount -= prev.byKey["tsq_fanout_imbalance_ratio_count"]
	}
	if imbCount > 0 {
		fmt.Printf("shard imbalance (max/mean candidates): %.2f over %.0f fan-out(s)\n",
			imbSum/imbCount, imbCount)
	}

	// Buffer pool (page cache). Hit/miss/eviction counters are scrape-time
	// totals on the gauge surface; show frame deltas like the query counters.
	poolDelta := func(name string) float64 {
		v := cur.byKey[name]
		if prev != nil {
			v -= prev.byKey[name]
		}
		return v
	}
	poolHits := poolDelta("tsq_pool_hits_total")
	poolMisses := poolDelta("tsq_pool_misses_total")
	if capacity := cur.byKey["tsq_pool_capacity_pages"]; capacity > 0 {
		poolHitRate := 0.0
		if poolHits+poolMisses > 0 {
			poolHitRate = 100 * poolHits / (poolHits + poolMisses)
		}
		backing := "memory"
		if cur.byKey["tsq_store_disk_backed"] > 0 {
			backing = "disk"
		}
		// Records opened per verified candidate, from /stats: the candidates
		// the resident spectrum heads could not decide are the only ones
		// that reach the pool at all.
		candidates, opened := float64(st.Candidates), float64(st.Candidates-st.HeadResolved)
		if prev != nil {
			candidates -= float64(prev.stats.Candidates)
			opened -= float64(prev.stats.Candidates - prev.stats.HeadResolved)
		}
		faults := 0.0
		if candidates > 0 {
			faults = opened / candidates
		}
		fmt.Printf("pool (%s): %.1f%% hit (%.0f hits / %.0f misses), %.0f evictions, %.0f/%.0f resident, %.0f pinned, %.3f page faults/candidate\n",
			backing, poolHitRate, poolHits, poolMisses,
			poolDelta("tsq_pool_evictions_total"),
			cur.byKey["tsq_pool_resident_pages"], capacity,
			cur.byKey["tsq_pool_pinned_pages"], faults)
	}

	// Streaming health.
	dropped := cur.byKey["tsq_watch_dropped_events_total"]
	fmt.Printf("monitors %d, subscribers %.0f, dropped watch events %.0f\n",
		st.Monitors, cur.byKey["tsq_monitor_subscribers"], dropped)

	// Worst retained executions, with the trace IDs to pull them by.
	var worst []sampleRow
	for _, row := range cur.rows {
		if row.name == "tsq_query_worst_recent_seconds" {
			worst = append(worst, row)
		}
	}
	sort.Slice(worst, func(i, j int) bool { return worst[i].value > worst[j].value })
	if len(worst) > 0 {
		fmt.Println("worst recent (tsqcli traces -id ...):")
		for i, row := range worst {
			if i == 4 {
				break
			}
			fmt.Printf("  %-8s via %-8s %8.2f ms  id %s\n",
				row.labels["kind"], row.labels["strategy"],
				row.value*1000, row.labels["request_id"])
		}
	}
}

// runTop polls /metrics and /stats, rendering a refreshing dashboard:
// per-kind qps and latency percentiles, cache hit rate, planner drift,
// shard imbalance, streaming health, and the worst recent executions
// with their trace IDs. -once prints a single cumulative snapshot and
// exits (scriptable; used by CI).
func runTop(remote string, args []string) error {
	if remote == "" {
		return fmt.Errorf("top requires -remote")
	}
	fs := flag.NewFlagSet("top", flag.ContinueOnError)
	var (
		once     = fs.Bool("once", false, "print one cumulative snapshot and exit")
		interval = fs.Duration("interval", 2*time.Second, "refresh interval")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	client := server.NewClient(remote)
	cur, err := takeSnapshot(client)
	if err != nil {
		return err
	}
	if *once {
		renderFrame(remote, cur, nil)
		return nil
	}
	if *interval <= 0 {
		return fmt.Errorf("-interval must be positive, got %s", *interval)
	}
	// First frame is cumulative; subsequent frames show per-interval
	// rates from counter deltas.
	fmt.Print("\x1b[2J\x1b[H")
	renderFrame(remote, cur, nil)
	for {
		time.Sleep(*interval)
		next, err := takeSnapshot(client)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tsqcli top:", err)
			continue
		}
		fmt.Print("\x1b[2J\x1b[H")
		renderFrame(remote, next, cur)
		cur = next
	}
}
