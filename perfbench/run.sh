#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in, then
# runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload kernels-16c --seed 1 --seconds 30 --trace 0
#
# Every file the build writes (binary, Go build cache, Go's own config)
# stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
(
	cd "$root/perfbench"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOENV=off \
		GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local \
		GOWORK=off GOFLAGS=-mod=mod GOPROXY=off \
		go build -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
