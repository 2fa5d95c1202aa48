#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. Every
# file the build and the run leave behind lands under .bench_build/ (Go's
# build cache included), so nothing outside the checkout is written.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local
(cd "$(dirname "$0")" && go build -o "$build/gradoop-bench" .)
exec "$build/gradoop-bench" -workdir "$build" "$@"
