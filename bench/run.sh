#!/usr/bin/env bash
# Builds the tsperrd benchmark from source and runs it with the given flags,
# e.g. from the repository root:
#
#   bash bench/run.sh --workload estimate-miss --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, the binary, the
# fresh model-cache directories, span dumps) stays under .bench_build in the
# current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/bench" && go build -o "$out/tsperr-bench" .)
exec "$out/tsperr-bench" "$@"
