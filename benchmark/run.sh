#!/usr/bin/env bash
# Builds the benchmark from the checkout this file lies in and runs it
# there with the given arguments. Everything the build and the run write
# stays under .bench_build in the checkout: Go's build cache, its module
# cache and telemetry files, and the benchmark's temporary files.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
cd "$root"
GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly \
	go build -C benchmark -o "$build/benchmark" .
exec "$build/benchmark" "$@"
