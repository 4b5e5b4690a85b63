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
# Into entry points must allocate nothing, and a write's derivation no more
# than its point and its record (fails CI otherwise).
alloc-gate:
	$(GO) test -run 'TestHotPathZeroAlloc|TestArenaSafetyRace|TestDeriveAllocs' -count=1 -v ./internal/core

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

vet:
	$(GO) vet ./...
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	@if $(GO) list -f '{{join .Imports "\n"}}' ./internal/query | grep '^repro/'; then \
		echo "internal/query is syntax only: it must import the standard library only"; exit 1; fi
	@for m in ExecRangeInto ExecNNInto ExecJoin SelfJoin WriteTo Update Append; do \
		n=$$(cat $$(ls internal/core/*.go | grep -v _test.go) | grep -c "^func (.*) $$m("); \
		if [ "$$n" -ne 1 ]; then \
			echo "internal/core declares $$n methods named $$m: there is one store, and it implements Engine once"; exit 1; fi; done
	@if [ -e internal/lru ]; then \
		echo "internal/lru is back: the result cache is one type, resultCache in the root package"; exit 1; fi
	@n=$$(awk '/^func /{fn=$$0} /hub\.(Notify|RefreshAll)/{print fn}' $$(ls *.go | grep -v _test.go) | sort -u | wc -l); \
		if [ "$$n" -ne 1 ]; then \
			echo "$$n root-package functions notify the monitor hub: every write ends in Server.commit, and only there"; exit 1; fi
	@if grep -n 'cacheGuard\|writeLog\b\|namedEvent\|notifyWrite\|seriesCount\|BufferPoolPages\|AttachPool' \
		$$(git ls-files '*.go' | grep -v '_test\.go$$'); then \
		echo "a retired piece of the write path is back (see ARCHITECTURE, Write path)"; exit 1; fi
	@if grep -n 'EnergyOrder\|InversePermutation\|relation\.Permute\|sh\.perm' \
		$$(git ls-files '*.go' | grep -v '_test\.go$$'); then \
		echo "the frequency relation stores the half spectrum in natural order: the permutation machinery is gone"; exit 1; fi
	@if grep -nE 'FirstK|CoefficientReal|NormalFormCoeffs|halfSpectrum|encodeSpectrum|queryFeaturePoint' \
		$$(git ls-files '*.go' | grep -v '_test\.go$$'); then \
		echo "a series is derived by one real-input transform (feature.Schema.Derive): the direct sums and the second FFT are gone"; exit 1; fi

fmt:
	gofmt -w .

# Generate a synthetic data set and serve it on :8080.
serve:
	$(GO) run ./cmd/tsqgen -count 500 -length 128 > /tmp/tsq-walks.csv
	$(GO) run ./cmd/tsqd -data /tmp/tsq-walks.csv -addr :8080

clean:
	$(GO) clean ./...
