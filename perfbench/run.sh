#!/usr/bin/env bash
# Builds the repo benchmark from source into .bench_build/ under the
# current directory (the repository root) and runs it with the given
# arguments:
#
#   bash perfbench/run.sh --workload eval-mem --seed 1 --seconds 15 --trace 0
#
# The Go build cache, temporary files and the go command's own
# configuration and telemetry directory (under XDG_CONFIG_HOME) stay
# inside .bench_build/, and the toolchain never downloads anything.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" \
	GOWORK=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
