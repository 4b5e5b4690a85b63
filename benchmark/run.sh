#!/usr/bin/env bash
# Builds the benchmark and the tsqd it drives from the checkout's source,
# then runs one benchmark invocation. Run from the repository root:
#
#   bash benchmark/run.sh --workload engine-heavy --seed 1 --seconds 22 --trace 0
#
# Everything a run writes stays under benchmark/out/: the binaries and the
# Go build and module caches in out/build/, span files and scratch space
# beside them.
set -euo pipefail

build=$PWD/benchmark/out/build
mkdir -p "$build/bin"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gomod GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-modcacherw

go build -o "$build/bin/tsqd" ./cmd/tsqd
go -C benchmark build -o "$build/bin/tsqbench" .

exec "$build/bin/tsqbench" -out benchmark/out -tsqd "$build/bin/tsqd" "$@"
