#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/perfbench, keeping
# the Go build cache and configuration there too, so that nothing is
# written outside the checkout, and runs it with the given arguments.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload plan-scale --seed 1 --seconds 20 --trace 0
set -euo pipefail
out="$PWD/.bench_build/perfbench"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off XDG_CONFIG_HOME="$out/config"
mkdir -p "$GOTMPDIR"
go -C perfbench build -buildvcs=false -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
