#!/usr/bin/env bash
# Builds cmd/twd and the svcbench driver from the checkout it is run in,
# then runs one benchmark invocation with the arguments passed through:
#
#   bash svcbench/run.sh --workload admit --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. Binaries, the Go build cache and
# every run's WAL stay under .bench_build/ there.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"

go build -o "$out/twd" ./cmd/twd >&2
(cd svcbench && go build -o "$out/svcbench" .) >&2

exec "$out/svcbench" -twd "$out/twd" -work "$out/runs" "$@"
