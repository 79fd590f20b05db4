#!/usr/bin/env bash
# The command of BENCHMARK.json: build the benchmark from the source of the
# checkout it sits in, into .bench_build/ at the checkout's root, and run
# it with the driver's arguments. Everything the build and the run write
# stays inside the checkout: the Go build cache and Go's local telemetry
# counters are pointed into .bench_build/, traces and temporary stores go
# to benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
(
	cd "$here"
	GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local \
		go build -o "$build/hgs-benchmark" .
)
exec "$build/hgs-benchmark" -out "$here/out" "$@"
