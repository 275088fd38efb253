#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it with
# the given arguments. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload poll-tree --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binary and the span files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "perfbench: run from the root of a checkout that holds the program's sources" >&2
	exit 2
fi
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
