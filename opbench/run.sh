#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g. from the repository root:
#
#   bash opbench/run.sh --workload te-online --seed 1 --seconds 30 --trace 0
#
# Every file the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build), relative to the
# directory the script is started from.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$PWD/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off

(cd "$here" && go build -o "$build/opbench" .)
exec "$build/opbench" --out "$build/opbench-results" "$@"
