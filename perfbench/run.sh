#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload corpus-cold --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, temporary files) stays in
# .bench_build/ under the current directory, and the build is offline.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-path" "$out/config"

export GOCACHE="$out/go-cache"
export GOTMPDIR="$out/go-tmp"
export GOPATH="$out/go-path"
export XDG_CONFIG_HOME="$out/config"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=-buildvcs=false

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
