#!/usr/bin/env bash
# run.sh — build the pdxd load benchmark from this checkout's sources
# and run it with the given arguments, from the checkout root:
#
#   bash bench/run.sh --workload warm-read --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and every scratch file stay under
# .bench_build/ at the checkout root; build output goes to stderr, so
# stdout carries only the benchmark's report.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
  XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/bench" && go build -o "$build/pdxd-bench" .) >&2
cd "$root"
exec "$build/pdxd-bench" "$@"
