#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, for example from the repository root:
#
#   bash perfbench/run.sh --workload tables --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and traces go to $CARGO_TARGET_DIR
# (default .bench_build) under the repository root, so nothing is written
# outside the checkout.
set -euo pipefail

bench=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$bench")
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp" "$out/config"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$bench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --trace-dir "$out/traces" "$@"
