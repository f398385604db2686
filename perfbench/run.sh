#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it:
#
#   bash perfbench/run.sh --workload trace-npb --seed 1 --seconds 25 --trace 0
#
# Run it from the root of the repository. Build outputs, the Go build cache,
# corpora and trace exports all stay under .bench_build/ there.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
if [[ ! -f go.mod || ! -f cypress.go ]]; then
	echo "perfbench: $root holds no CYPRESS source tree to build" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOENV=off
(cd perfbench && go build -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" --out "$out/perfbench" "$@"
