GO ?= go

.PHONY: build test vet fmt serve clean bench-smoke bench-metrics-overhead alloc-gate bench-check

build:
	$(GO) build ./...

test: vet
	$(GO) test -race ./...

# Run every benchmark exactly once — a rot check, not a measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Allocation-regression gate: warm planned range/NN executions through the
# Into entry points must allocate nothing, a write's derivation no more
# than its point and its record, and a bulk load no more than 3.5 objects a
# window (fails CI otherwise).
alloc-gate:
	$(GO) test -run 'TestHotPathZeroAlloc|TestArenaSafetyRace|TestDeriveAllocs|TestInsertBulkAllocs' -count=1 -v ./internal/core

# Build, vet and test the benchmark harness the repository is judged by,
# then run it end to end at smoke size. benchmark/ is a module of its own,
# so `go build ./...` and `go test ./...` at the root never compile it: a
# signature change under internal/ breaks it silently unless this runs.
bench-check:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...
	bash benchmark/run.sh --smoke

# Measure the telemetry tax on an uncached range + NN mix over 4 shards:
# the same workload with the metrics registry enabled vs disabled must
# stay within a 3% budget (median of paired chunk timings).
bench-metrics-overhead:
	TSQ_BENCH_OVERHEAD=1 $(GO) test -run TestMetricsOverhead -count=1 -v .

# The second vet compiles the !unix files (the heap page memory and the
# O_EXCL lock), which no build on this platform does.
vet:
	$(GO) vet ./...
	GOOS=windows $(GO) vet ./...
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
