package core

import (
	"math"
	"strconv"
	"sync"
	"time"

	"repro/internal/plan"
	"repro/internal/telemetry"
)

// Span is one timed step of a query execution: a node of the trace tree
// ExecStats carries through the plan → fan-out → merge → cache-tag
// pipeline. Spans record durations and nesting only (no absolute
// offsets), which is all the TRACE surface and the slow-query log need
// and keeps recording to two monotonic clock reads per span.
type Span struct {
	// Name identifies the step: "plan", "fanout", "shard", "search",
	// "merge", "cache-tag".
	Name string
	// Shard is the shard index a shard-scoped span ran on; -1 otherwise.
	Shard int
	// Duration is the span's wall time.
	Duration time.Duration
	// HeadResolved is set on "search" and "scan" spans: the candidates the
	// step verified without opening their pages (ExecStats.HeadResolved).
	HeadResolved int
	// Children are the nested steps, in execution order.
	Children []Span
}

func span(name string, d time.Duration, children ...Span) Span {
	return Span{Name: name, Shard: -1, Duration: d, Children: children}
}

// workSpan is the span of an execution's filter-and-verify step ("search"
// or "scan"), carrying what the step resolved in the spectrum heads.
func workSpan(name string, d time.Duration, st *ExecStats) Span {
	return Span{Name: name, Shard: -1, Duration: d, HeadResolved: st.HeadResolved}
}

func shardSpan(shard int, d time.Duration) Span {
	return Span{Name: "shard", Shard: shard, Duration: d}
}

func init() {
	telemetry.Describe("tsq_plan_executions_total", "Planned executions by query kind and resolved strategy.")
	telemetry.Describe("tsq_plan_duration_seconds", "Engine execution latency of planned queries.")
	telemetry.Describe("tsq_plan_cost_error_ratio", "Planner absolute relative candidate-count error |actual-est|/max(est,1) per query kind.")
	telemetry.Describe("tsq_shard_candidates_total", "Verified candidates per shard across fan-out executions.")
	telemetry.Describe("tsq_shard_node_accesses_total", "Index node accesses per shard across fan-out executions.")
	telemetry.Describe("tsq_shard_results_total", "Merged answers contributed per shard across fan-out executions.")
	telemetry.Describe("tsq_pair_checks_total", "Candidate pair checks per shard across join executions.")
	telemetry.Describe("tsq_fanout_imbalance_ratio", "Max/mean per-shard candidate counts of multi-shard executions.")
	telemetry.Describe("tsq_approx_queries_total", "Approximate-tier (APPROX delta > 0) executions by query kind.")
	telemetry.Describe("tsq_approx_bound_tightness", "Realized mean bound tightness LB/UB of approximate executions (1 = bound closed exactly).")
}

// finishExec stamps a completed planned execution with its resolved
// strategy, then reports it to the metrics registry. Every Exec* calls it
// last, beside history.Observe.
func finishExec(pl *plan.Plan, st *ExecStats) {
	st.Strategy = pl.Strategy.String()
	observeExec(pl, st)
}

// fanSpans builds the span forest of a finished fan-out from its per-shard
// provenance: a "fanout" span with one child per shard, followed by the
// merge step. A one-shard store carries no provenance — its one partition
// ran on the caller's goroutine — and its tree is the plain search + merge
// pair: one shard is the inline case of the same box.
func fanSpans(st *ExecStats, fan, merge time.Duration) []Span {
	if st.Shards == nil {
		return []Span{workSpan("search", fan, st), span("merge", merge)}
	}
	children := make([]Span, len(st.Shards))
	for i, sh := range st.Shards {
		children[i] = shardSpan(sh.Shard, sh.Elapsed)
	}
	return []Span{span("fanout", fan, children...), span("merge", merge)}
}

// execMetricCache memoizes the per-kind×strategy plan handles and
// shardMetricCache the per-shard counters: observeExec runs on every
// planned execution, and registry lookups (label-key building plus a map
// read) are too expensive to repeat there.
var (
	execMetricCache   sync.Map // "kind\x00strategy" -> execMetrics
	shardMetricCache  sync.Map // shard int -> shardMetrics
	approxMetricCache sync.Map // kind string -> approxMetrics
)

type execMetrics struct {
	count     *telemetry.Counter
	latency   *telemetry.Histogram
	costError *telemetry.Histogram
	imbalance *telemetry.Histogram
}

type shardMetrics struct {
	candidates   *telemetry.Counter
	nodeAccesses *telemetry.Counter
	results      *telemetry.Counter
	pairChecks   *telemetry.Counter
}

type approxMetrics struct {
	count     *telemetry.Counter
	tightness *telemetry.Histogram
}

func approxHandles(kind string) approxMetrics {
	if v, ok := approxMetricCache.Load(kind); ok {
		return v.(approxMetrics)
	}
	v, _ := approxMetricCache.LoadOrStore(kind, approxMetrics{
		count:     telemetry.Count("tsq_approx_queries_total", "kind", kind),
		tightness: telemetry.HistogramOf("tsq_approx_bound_tightness", telemetry.RatioBuckets, "kind", kind),
	})
	return v.(approxMetrics)
}

func execHandles(kind, strat string) execMetrics {
	key := kind + "\x00" + strat
	if v, ok := execMetricCache.Load(key); ok {
		return v.(execMetrics)
	}
	v, _ := execMetricCache.LoadOrStore(key, execMetrics{
		count: telemetry.Count("tsq_plan_executions_total", "kind", kind, "strategy", strat),
		latency: telemetry.HistogramOf("tsq_plan_duration_seconds", telemetry.LatencyBuckets,
			"kind", kind, "strategy", strat),
		costError: telemetry.HistogramOf("tsq_plan_cost_error_ratio", telemetry.RatioBuckets,
			"kind", kind),
		imbalance: telemetry.HistogramOf("tsq_fanout_imbalance_ratio", telemetry.RatioBuckets,
			"kind", kind),
	})
	return v.(execMetrics)
}

func shardHandles(shard int) shardMetrics {
	if v, ok := shardMetricCache.Load(shard); ok {
		return v.(shardMetrics)
	}
	lbl := strconv.Itoa(shard)
	v, _ := shardMetricCache.LoadOrStore(shard, shardMetrics{
		candidates:   telemetry.Count("tsq_shard_candidates_total", "shard", lbl),
		nodeAccesses: telemetry.Count("tsq_shard_node_accesses_total", "shard", lbl),
		results:      telemetry.Count("tsq_shard_results_total", "shard", lbl),
		pairChecks:   telemetry.Count("tsq_pair_checks_total", "shard", lbl),
	})
	return v.(shardMetrics)
}

// observeExec reports one planned execution to the process-wide metrics
// registry: latency and count by kind×strategy, the planner's absolute
// relative cost error, per-shard provenance counters, and the fan-out's
// candidate imbalance. Called beside every history.Observe so the ring
// and the scrape surface always agree.
func observeExec(pl *plan.Plan, st *ExecStats) {
	if !telemetry.Enabled() {
		return
	}
	m := execHandles(pl.Kind, pl.Strategy.String())
	m.count.Inc()
	m.latency.Observe(st.Elapsed.Seconds())
	if pl.Approx != nil {
		am := approxHandles(pl.Kind)
		am.count.Inc()
		if st.EarlyAccepts > 0 {
			am.tightness.Observe(st.BoundTightSum / float64(st.EarlyAccepts))
		}
	}
	if est := pl.Est.Candidates; est > 0 {
		m.costError.Observe(math.Abs(float64(st.Candidates)-est) / math.Max(est, 1))
	}
	join := pl.Kind == "selfjoin" || pl.Kind == "join"
	maxCand, sumCand := 0, 0
	for _, sh := range st.Shards {
		sm := shardHandles(sh.Shard)
		sm.candidates.Add(int64(sh.Candidates))
		sm.nodeAccesses.Add(int64(sh.NodeAccesses))
		sm.results.Add(int64(sh.Results))
		if join {
			sm.pairChecks.Add(int64(sh.Candidates))
		}
		sumCand += sh.Candidates
		if sh.Candidates > maxCand {
			maxCand = sh.Candidates
		}
	}
	if len(st.Shards) > 1 && sumCand > 0 {
		mean := float64(sumCand) / float64(len(st.Shards))
		m.imbalance.Observe(float64(maxCand) / mean)
	}
}
