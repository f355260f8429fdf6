#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload preprocess --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build product, Go cache and trace file
# stays under the build directory ($CARGO_TARGET_DIR, default .bench_build),
# so nothing outside the checkout is read from or written to besides the Go
# toolchain itself.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/tmp"
build="$(cd "$build" && pwd)"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" --trace-dir "$build" "$@"
