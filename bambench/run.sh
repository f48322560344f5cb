#!/usr/bin/env bash
# Builds bambood and bambench from this checkout, then runs bambench
# with the given arguments, e.g.
#
#   bash bambench/run.sh --workload kv-bulk --seed 1 --seconds 40 --trace 0
#
# Run it from the repository root. Build products, the Go build cache,
# WAL directories and trace files all stay under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/bambood" ]]; then
	echo "bambench: run from the repository root (go.mod and cmd/bambood not found in $root)" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/bin" "$build/gocache" "$build/gotmp"

export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

cd "$root/bambench"
go build -o "$build/bin/bambood" repro/cmd/bambood
go build -o "$build/bin/bambench" .
cd "$root"
exec "$build/bin/bambench" -bambood "$build/bin/bambood" -workdir "$build/run" "$@"
