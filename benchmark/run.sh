#!/usr/bin/env bash
# Entry point for the benchmark driver (BENCHMARK.json "command"): builds
# the benchmark from source and runs it, passing the driver's flags
# through. Everything the Go toolchain and the benchmark write — build
# cache, binaries, temporary files — stays under one build directory
# inside the checkout, so a run touches nothing outside it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=-modcacherw
mkdir -p "$GOCACHE" "$GOMODCACHE" "$TMPDIR"

cd "$root"
go build -C benchmark -o "$build/benchmark" .
exec "$build/benchmark" "$@"
