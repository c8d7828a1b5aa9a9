#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# e.g. from the repository root:
#
#   bash worldbench/run.sh --workload reflect --seed 1 --seconds 30 --trace 0
#
# Everything the toolchain writes (build cache, temporary files, the
# binary) stays under .bench_build in the current directory, and nothing is
# fetched: the benchmark and the simulator use only the standard library.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0 \
	GOWORK=off

(cd "$here" && go build -o "$out/worldbench" .)
exec "$out/worldbench" "$@"
