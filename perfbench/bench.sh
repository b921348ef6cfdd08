#!/usr/bin/env bash
# Builds the benchmark driver and runs it from the repository root.
#
#   bash perfbench/bench.sh --workload full --seed 1 --seconds 20 --trace 0
#   bash perfbench/bench.sh steady --runs 5 --seconds 20
#   bash perfbench/bench.sh regen
#
# Every build product, Go cache and scratch file stays under .bench_build
# in the current directory, so the benchmark reads and writes nothing
# outside the checkout it runs in.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS="-buildvcs=false"
export GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -root "$root" "$@"
