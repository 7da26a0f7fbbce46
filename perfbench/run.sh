#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#	bash perfbench/run.sh --workload rewrite-corpus --seed 1 --seconds 20 --trace 0
#
# Every build product (binary, Go build cache, temporary files,
# toolchain state) stays under .bench_build/ in the checkout. The
# benchmark module replaces the repro module with the parent directory,
# so outside a full checkout the build fails and nothing is run.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
