#!/usr/bin/env bash
# Builds the benchmark and the rasserve binary it drives from this
# checkout, then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in the checkout: binaries, the Go build cache and the
# serve harness's temporary directories.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a retstack checkout" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local GOPROXY=off \
	GOFLAGS=-buildvcs=false GOTELEMETRY=off
(
	cd perfbench
	go build -o "$out/perfbench" .
	go build -o "$out/rasserve" retstack/cmd/rasserve
)
exec "$out/perfbench" --rasserve "$out/rasserve" --scratch "$out/tmp" "$@"
