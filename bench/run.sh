#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload frame-small --seed 1 --seconds 25 --trace 0
#   bash bench/run.sh compare -a <dir> -b <dir>
#
# Every file the Go toolchain writes (build cache, temporary files, the
# binary) stays under .bench_build/ in the current directory.
set -euo pipefail

root=$PWD
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/xdg-config" "$out/xdg-cache"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath \
	XDG_CONFIG_HOME=$out/xdg-config XDG_CACHE_HOME=$out/xdg-cache \
	GOTOOLCHAIN=local GOENV=off GOFLAGS= GOWORK=off

(cd "$root/bench" && go build -o "$out/dbibench" .)
exec "$out/dbibench" "$@"
