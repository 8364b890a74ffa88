#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, forwarding
# every argument:
#
#   bash perfbench/run.sh --workload churn-lookup --seed 2004 --seconds 35 --trace 0
#
# Run it from the repository root. The build cache, module cache, Go's
# configuration and telemetry directory, and the binary live under
# .bench_build, so a run reads and writes only inside the checkout, and
# nothing is fetched from the network.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
