#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root: bash bench/run.sh [-seed 1 | --workload ...].
# Everything the Go toolchain writes (build cache, binary) stays under
# .bench_build in the current directory.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
go -C bench build -o "$build/xsearch-perfbench" . >&2
exec "$build/xsearch-perfbench" "$@"
