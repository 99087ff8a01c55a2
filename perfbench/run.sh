#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it; every argument is passed through. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-light --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and run records go to $CARGO_TARGET_DIR
# (default .bench_build), so nothing is written outside the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
export CARGO_TARGET_DIR=$out GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOMODCACHE=$out/gomod \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
mkdir -p "$GOTMPDIR"
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
