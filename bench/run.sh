#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build
# leaves behind -- the compiler's cache and temporary files as well as
# the binary -- stays under .bench_build/ at the root of the checkout,
# so a run reads and writes nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOWORK=off GOTOOLCHAIN=local
go build -C "$here" -o "$build/favbench" .
exec "$build/favbench" "$@"
