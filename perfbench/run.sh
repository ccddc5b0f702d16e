#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload read_peak --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, module cache, its own
# configuration and telemetry) stays under .bench_build/ in the checkout,
# and the module proxy is off: the benchmark needs no module outside the
# repository.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off \
	GOFLAGS=-buildvcs=false
go build -C perfbench -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
