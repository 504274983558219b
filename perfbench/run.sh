#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload site-sessions --seed 1 --seconds 35 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache
# and traced-run artifacts all stay under .bench_build/ in the
# checkout; nothing is fetched from the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOPROXY=off \
	GOTOOLCHAIN=local GOTELEMETRY=off XDG_CONFIG_HOME="$out/config"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out/perfbench-artifacts" "$@"
