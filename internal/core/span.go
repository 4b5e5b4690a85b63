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
// offsets), which is all the TRACE surface and the flight recorder need
// and keeps recording to two monotonic clock reads per span.
type Span struct {
	// Name identifies the step: "plan", "fanout", "shard", "search",
	// "merge", "cache-tag".
	Name string
	// Shard is the shard index a shard-scoped span ran on; -1 otherwise.
	Shard int
	// Duration is the span's wall time.
	Duration time.Duration
	// HeadResolved is set on "search", "scan" and "shard" spans: the
	// candidates the step verified without opening their pages
	// (ExecStats.HeadResolved; a shard span's is ShardExec.HeadResolved).
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

func shardSpan(sh ShardExec) Span {
	return Span{Name: "shard", Shard: sh.Shard, Duration: sh.Elapsed, HeadResolved: sh.HeadResolved}
}

func init() {
	telemetry.Describe("tsq_plan_executions_total", "Planned executions by query kind and resolved strategy.")
	telemetry.Describe("tsq_plan_duration_seconds", "Engine execution latency of planned queries.")
	telemetry.Describe("tsq_plan_cost_error_ratio", "Planner absolute relative candidate-count error |actual-est|/max(est,1) per query kind.")
	telemetry.Describe("tsq_shard_candidates_total", "Verified candidates per shard across fan-out executions.")
	telemetry.Describe("tsq_fanout_imbalance_ratio", "Max/mean per-shard candidate counts of multi-shard executions.")
	telemetry.Describe("tsq_approx_queries_total", "Approximate-tier (APPROX delta > 0) executions by query kind.")
}

// finishExec stamps a completed planned execution with its resolved
// strategy, then reports it to the metrics registry. Every Exec* calls it
// last.
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
		children[i] = shardSpan(sh)
	}
	return []Span{span("fanout", fan, children...), span("merge", merge)}
}

// execMetricCache memoizes the per-kind×strategy plan handles,
// shardMetricCache the per-shard candidate counters and approxMetricCache
// the per-kind approximate-read counters: observeExec runs on
// every planned execution, and registry lookups (label-key building plus
// a map read) are too expensive to repeat there.
var (
	execMetricCache   sync.Map // "kind\x00strategy" -> execMetrics
	shardMetricCache  sync.Map // shard int -> *telemetry.Counter
	approxMetricCache sync.Map // kind string -> *telemetry.Counter
)

type execMetrics struct {
	count     *telemetry.Counter
	latency   *telemetry.Histogram
	costError *telemetry.Histogram
	imbalance *telemetry.Histogram
}

func approxCount(kind string) *telemetry.Counter {
	if v, ok := approxMetricCache.Load(kind); ok {
		return v.(*telemetry.Counter)
	}
	v, _ := approxMetricCache.LoadOrStore(kind, telemetry.Count("tsq_approx_queries_total", "kind", kind))
	return v.(*telemetry.Counter)
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

func shardCandidates(shard int) *telemetry.Counter {
	if v, ok := shardMetricCache.Load(shard); ok {
		return v.(*telemetry.Counter)
	}
	v, _ := shardMetricCache.LoadOrStore(shard,
		telemetry.Count("tsq_shard_candidates_total", "shard", strconv.Itoa(shard)))
	return v.(*telemetry.Counter)
}

// observeExec reports one planned execution to the process-wide metrics
// registry: latency and count by kind×strategy, the planner's absolute
// relative cost error, per-shard candidate counts, and the fan-out's
// candidate imbalance. tsq_plan_cost_error_ratio is the planner's drift
// record for the population; EXPLAIN shows it for one query.
func observeExec(pl *plan.Plan, st *ExecStats) {
	if !telemetry.Enabled() {
		return
	}
	m := execHandles(pl.Kind, pl.Strategy.String())
	m.count.Inc()
	m.latency.Observe(st.Elapsed.Seconds())
	if pl.Approx != nil {
		approxCount(pl.Kind).Inc()
	}
	if est := pl.Est.Candidates; est > 0 {
		m.costError.Observe(math.Abs(float64(st.Candidates)-est) / math.Max(est, 1))
	}
	maxCand, sumCand := 0, 0
	for _, sh := range st.Shards {
		shardCandidates(sh.Shard).Add(int64(sh.Candidates))
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
