#!/usr/bin/env bash
# Runs the darkcrowd benchmark from the root of a checkout:
#
#   bash bench/run.sh --workload batch-twitter --seed 1 --seconds 20 --trace 0
#
# It builds the benchmark program, which then builds the darkcrowd CLI from
# the same checkout. Every build product, cache and scratch file stays
# under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd bench && go build -o "$out/darkbench" .)
exec "$out/darkbench" "$@"
