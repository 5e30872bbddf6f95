#!/usr/bin/env bash
# Builds the harness from source and runs it from the checkout root. The Go
# build cache, module path and temp dir are kept inside the checkout
# (.bench_build/) so the benchmark reads and writes nothing outside it.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
mkdir -p "$root/.bench_build/tmp"
export GOCACHE="$root/.bench_build/go-cache"
export GOPATH="$root/.bench_build/gopath"
export GOTMPDIR="$root/.bench_build/tmp"
export GOTOOLCHAIN=local GOWORK=off
go build -C bench -o "$root/.bench_build/mtoe2e" .
exec "$root/.bench_build/mtoe2e" "$@"
