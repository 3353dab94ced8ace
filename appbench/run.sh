#!/usr/bin/env bash
# Builds the application benchmark from source and runs it with the
# given arguments. Run from the repository root:
#
#   bash appbench/run.sh --workload ht-ycsb-a --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write (Go build cache, binary, span
# files) stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build/appbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

# XDG_CONFIG_HOME keeps the go command's own telemetry counters here too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0

(cd "$here" && go build -trimpath -buildvcs=false -o "$out/appbench" .)
exec "$out/appbench" "$@"
