#!/usr/bin/env bash
# Builds the harness once, outside any timed region, and runs it with the
# given flags (see main.go). Run from the repository root. Everything the
# build and the run write stays under .bench_build/ and benchmark/out/.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
go build -o "$build/weseer-benchmark" ./benchmark
exec "$build/weseer-benchmark" "$@"
