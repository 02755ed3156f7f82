#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it.
#
#   bash perfbench/run.sh --workload serve-sparse --seed 1 --seconds 12 --trace 0
#
# Run it from the root of the repository. Every build product, scratch sketch
# and span file stays under .bench_build/ in that root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
# Keep the go command's caches, module cache and telemetry in the checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
XDG_CONFIG_HOME="$out/config" go -C "$root/perfbench" build -o "$out/imdist-perfbench" . >&2
exec "$out/imdist-perfbench" "$@"
