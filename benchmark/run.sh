#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Everything go writes (build cache, module cache, the
# binary) and everything the benchmark writes (cache directories, traces)
# goes under .bench_build in the checkout; nothing outside it is touched.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
# The benchmark is a module of its own that replaces customfit with the
# checkout around it, so it builds the program it measures from source.
(cd benchmark && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
