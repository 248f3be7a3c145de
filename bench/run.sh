#!/bin/sh
# Builds the benchmark from source and runs it, keeping everything the
# build writes (Go's build cache, the binary) inside the checkout. The
# driver names the build directory in CARGO_TARGET_DIR; .bench_build is
# the default. Run from the repository root:
#
#   sh bench/run.sh --workload serve_hot --seed 1 --seconds 10 --trace 0
set -eu
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
GOCACHE="$out/gocache" go build -o "$out/bench" ./bench
exec "$out/bench" "$@"
