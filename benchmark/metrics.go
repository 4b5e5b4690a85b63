package main

// metricDef names one reported metric. The lists below are the
// benchmark's vocabulary: BENCHMARK.json repeats them (a test holds the
// two together) and -list prints them.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: share of the parent's median it may worsen by
	note               string
}

// endToEnd are measured with tracing off, and every workload reports all
// of them. The three measured in the rounds are on the machine's nominal
// speed: divided (the rate multiplied) by how slow the harness's reference
// ran between the same reads; reference.go says why, the raw.* per-layer
// metrics are the same figures as the clock read them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "wall time from nothing to first query answerable, median of 3 to 5 set-ups"},
	{"query_qps", "1/s", "higher", 0.25, "reads completed per second of round time"},
	{"range_p50_ms", "ms", "lower", 0.25, "client-observed range latency, median"},
	{"nn_p50_ms", "ms", "lower", 0.25, "client-observed nearest-neighbour latency, median"},
	{"peak_rss_mb", "MB", "lower", 0.15, "VmHWM of the process hosting the store"},
	{"snapshot_bytes_per_user_byte", "ratio", "lower", 0.01, "TSQ3 snapshot bytes of the freshly set-up store over series x length x 8"},
}

// perLayer come from the traced run; a metric that does not apply to a
// workload reads 0 there.
var perLayer = []metricDef{
	{"server.roundtrip_self_us", "us", "lower", 0, "loopback HTTP round trip minus the Server call beneath it"},
	{"server.resp_bytes_per_op", "B", "lower", 0, "reply body bytes per read"},
	{"tsq.server_self_us", "us", "lower", 0, "Server call minus the DB call beneath it (all of it on a cache hit)"},
	{"tsq.cache_hit_ratio", "ratio", "higher", 0, "result-cache hits over lookups, from ServerStats"},
	{"query.parse_us", "us", "lower", 0, "query.Parse per statement"},
	{"relation.resolve_us", "us", "lower", 0, "fetching a by-name query's stored values and spectrum"},
	{"plan.plan_us", "us", "lower", 0, "transform build plus Engine.PlanRange/PlanNN"},
	{"plan.index_share", "ratio", "higher", 0, "share of reads the plan routed to the index"},
	{"core.exec_us", "us", "lower", 0, "Engine.ExecRangeInto/ExecNNInto on the plan"},
	{"core.exec_share", "ratio", "lower", 0, "share of outermost op time spent in exec (uncached reads; per-read median ratio)"},
	{"core.candidates_per_op", "count", "lower", 0, "series that reached verification per read"},
	{"core.results_per_candidate", "ratio", "higher", 0, "answers over candidates: useful over attempted"},
	{"core.fraction_touched", "ratio", "lower", 0, "candidates over store size"},
	{"core.fanout_self_us", "us", "lower", 0, "exec minus the slowest shard span; 0 at one shard"},
	{"index.search_us", "us", "lower", 0, "KIndex.RangeIDs/NearestIDs alone, per indexed read"},
	{"index.nodes_per_op", "count", "lower", 0, "index nodes visited per read"},
	{"relation.fetch_us", "us", "lower", 0, "Engine.Series over the index step's candidates, per indexed read"},
	{"relation.pages_per_op", "count", "lower", 0, "relation pages read per read"},
	{"pagefile.pool_hit_ratio", "ratio", "higher", 0, "buffer-pool hits over lookups during the layers pass"},
	{"pagefile.evictions_per_op", "count", "lower", 0, "buffer-pool evictions per read"},
	{"kernel.verify_ns_per_candidate", "ns", "lower", 0, "series.EuclideanWithin per fetched candidate"},
	{"kernel.fft_us", "us", "lower", 0, "feature extraction plus FFT of one query vector"},
	{"stream.append_us", "us", "lower", 0, "DB.Append per append"},
	{"stream.notify_self_us", "us", "lower", 0, "Server.Append minus DB.Append: hub dispatch and cache invalidation"},
	{"stream.events_per_append", "count", "lower", 0, "monitor events the subscriber drained per append"},
	{"stream.dropped_events", "count", "lower", 0, "events dropped on the subscriber"},
	{"reference.sample_ms", "ms", "lower", 0, "untraced: mean time of the harness's reference sample between the reads; the nominal is 1.2"},
	{"raw.query_qps", "1/s", "higher", 0, "untraced: query_qps as the clock read it"},
	{"raw.range_p50_ms", "ms", "lower", 0, "untraced: range_p50_ms as the clock read it"},
	{"raw.nn_p50_ms", "ms", "lower", 0, "untraced: nn_p50_ms as the clock read it"},
	{"range_p95_ms", "ms", "lower", 0, "untraced: client-observed range latency, 95th percentile"},
	{"nn_p95_ms", "ms", "lower", 0, "untraced: client-observed nearest-neighbour latency, 95th percentile"},
	{"append_p50_ms", "ms", "lower", 0, "untraced: append latency from its due time, median"},
	{"append_p95_ms", "ms", "lower", 0, "untraced: append latency from its due time, 95th percentile"},
	{"loadgen.append_lateness_p95_ms", "ms", "lower", 0, "untraced: how late the generator sent appends, as the clock read it"},
	{"persist.parse_csv_s", "s", "lower", 0, "tsq.ReadCSVFile of the generated CSV"},
	{"persist.bulkload_s", "s", "lower", 0, "Open + InsertBulk"},
	{"persist.adopt_s", "s", "lower", 0, "ReadFromOptions of the TSQ3 snapshot into a backing dir"},
	{"persist.snapshot_bytes", "B", "lower", 0, "TSQ3 snapshot size of the freshly set-up store"},
	{"trace.op_us", "us", "lower", 0, "mean read time through the outermost surface in the traced pass"},
	{"trace.unattributed_ratio", "ratio", "lower", 0, "DB call time not covered by parse+resolve+plan+exec"},
	{"trace.overhead_ratio", "ratio", "lower", 0, "traced over untraced wall for the same reads"},
}
