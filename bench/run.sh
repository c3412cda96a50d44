#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash bench/run.sh --workload fig3-dense --seed 1 --seconds 20 --trace 0
#
# Every build artifact and Go cache goes under .bench_build/ at the root, so
# a run reads and writes nothing outside the checkout besides the Go
# toolchain itself. Outside a full checkout (no go.mod at the root) the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
export GOFLAGS=

go -C "$root/bench" build -o "$build/dccbench" .
exec "$build/dccbench" "$@"
