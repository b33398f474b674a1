#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout (Go's build cache included, so nothing is written outside the
# checkout) and runs it with the given arguments.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
# VCS stamping puts the commit in the report; where git cannot answer (no
# repository, or one it refuses to read) build without it.
(cd "$here" && { go build -o "$build/m3perf" . 2>/dev/null || go build -buildvcs=false -o "$build/m3perf" .; })
exec "$build/m3perf" "$@"
