#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload sweep-schemes --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache, the
# daemons' scratch directories and span files all live under .bench_build/
# in the current directory, so nothing outside the checkout is written.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache"
export GOTOOLCHAIN=local
export GOTMPDIR="$out"
export XDG_CONFIG_HOME="$out/config"
export XDG_CACHE_HOME="$out/cache"
export GOPATH="$out/gopath"

go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
