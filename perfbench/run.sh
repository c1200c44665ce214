#!/usr/bin/env bash
# Builds mcheckd and the benchmark from this checkout's sources, then
# runs one benchmark invocation. Run from the repository root:
#
#   bash perfbench/run.sh --workload cold-corpus --seed 1 --seconds 15 --trace 0
#
# Everything it writes (Go build cache, binaries, depots, traces) stays
# under $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS=

(cd "$root" && go build -o "$build/bin/mcheckd" ./cmd/mcheckd)
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" --mcheckd "$build/bin/mcheckd" --work "$build/work" "$@"
