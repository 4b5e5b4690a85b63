GO ?= go

.PHONY: build test vet fmt serve clean bench-smoke bench-throughput bench-append bench-plan bench-join bench-metrics-overhead bench-perf bench-perf-baseline bench-approx bench-coldstart alloc-gate bench-check

build:
	$(GO) build ./...

test: vet
	$(GO) test -race ./...

# Run every benchmark exactly once — a rot check, not a measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Measure concurrent mixed read/write queries/sec against a tsq.Server at
# shard counts 1, 2, 4, 8 and write the report to BENCH_2.json.
bench-throughput:
	TSQ_BENCH_OUT=$(CURDIR)/BENCH_2.json $(GO) test -run TestThroughputReport -v .

# Measure streaming appends/sec vs whole-series re-inserts at shard counts
# 1, 4, 8 and windows 256, 1024; write the report to BENCH_3.json.
bench-append:
	TSQ_BENCH_OUT=$(CURDIR)/BENCH_3.json $(GO) test -run TestAppendReport -timeout 20m -v .

# Measure the query planner against forced index/scan on low- and
# high-selectivity regimes, plus tagged-cache retention under a mixed
# append/query load; write the report to BENCH_4.json.
bench-plan:
	TSQ_BENCH_OUT=$(CURDIR)/BENCH_4.json $(GO) test -run TestPlanReport -v .

# Measure the join planner against each forced Table 1 method across a
# small/large-eps regime and a small/large-store regime; write the report
# to BENCH_5.json.
bench-join:
	TSQ_BENCH_OUT=$(CURDIR)/BENCH_5.json $(GO) test -run TestJoinReport -timeout 20m -v .

# Measure per-op hot-path costs — ns/op, B/op, allocs/op per query kind
# under GOMAXPROCS 1 and 4 — against the stored baseline
# (bench/BENCH6_BASELINE.json) and write the comparison to BENCH_6.json.
bench-perf:
	TSQ_BENCH_OUT=$(CURDIR)/BENCH_6.json $(GO) test -run TestPerfReport -timeout 20m -v ./internal/core

# Re-capture the hot-path baseline (run before a perf change, commit the
# result; bench-perf compares against it).
bench-perf-baseline:
	TSQ_BENCH_BASELINE=$(CURDIR)/bench/BENCH6_BASELINE.json $(GO) test -run TestPerfBaseline -timeout 20m -v ./internal/core

# Measure the approximate tier's latency-vs-recall curves — APPROX
# delta 0, 0.05, 0.1, 0.25 against the exact path on a long-series
# workload — and write the report to BENCH_7.json.
bench-approx:
	TSQ_BENCH_OUT=$(CURDIR)/BENCH_7.json $(GO) test -run TestApproxReport -timeout 20m -v .

# Measure cold start (TSQ3 slab adopt vs legacy full rebuild, shards 1
# and 4) and disk-backed query throughput as the buffer pool shrinks to
# 100%, 50%, 10% of the working set; write the report to BENCH_8.json.
bench-coldstart:
	TSQ_BENCH_OUT=$(CURDIR)/BENCH_8.json $(GO) test -run TestColdStartReport -timeout 20m -v .

# Allocation-regression gate: warm planned range/NN executions through the
# Into entry points must allocate nothing (fails CI otherwise).
alloc-gate:
	$(GO) test -run 'TestHotPathZeroAlloc|TestArenaSafetyRace' -count=1 -v ./internal/core

# Build, vet and test the benchmark harness the repository is judged by,
# then run it end to end at smoke size. benchmark/ is a module of its own,
# so `go build ./...` and `go test ./...` at the root never compile it: a
# signature change under internal/ breaks it silently unless this runs.
bench-check:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...
	bash benchmark/run.sh --smoke

# Measure the telemetry tax on the bench-plan query mix: the same
# workload with the metrics registry enabled vs disabled must stay
# within a 3% budget (median of paired chunk timings).
bench-metrics-overhead:
	TSQ_BENCH_OVERHEAD=1 $(GO) test -run TestMetricsOverhead -count=1 -v .

vet:
	$(GO) vet ./...
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi

fmt:
	gofmt -w .

# Generate a synthetic data set and serve it on :8080.
serve:
	$(GO) run ./cmd/tsqgen -count 500 -length 128 > /tmp/tsq-walks.csv
	$(GO) run ./cmd/tsqd -data /tmp/tsq-walks.csv -addr :8080

clean:
	$(GO) clean ./...
