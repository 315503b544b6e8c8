#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given arguments, for example:
#
#   bash perfbench/run.sh --workload paper-e64 --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build product, Go cache and
# trace output stays under .bench_build/ in that directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local \
	XDG_CONFIG_HOME="$out/config" PPROF_TMPDIR="$out/pprof"

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
