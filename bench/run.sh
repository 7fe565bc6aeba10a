#!/usr/bin/env bash
# Builds simbench from source inside the checkout and runs it with the given
# arguments. This is the command of BENCHMARK.json: the driver calls it from
# the root of a checkout as
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the build leaves behind (Go build cache, temp files, toolchain
# counters, the binary) stays under .bench_build in the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal/gpu ]; then
	echo "bench/run.sh: run me from the root of a checkout of the repository (no go.mod / internal here)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=

go build -o "$build/simbench" ./bench/simbench
exec "$build/simbench" "$@"
