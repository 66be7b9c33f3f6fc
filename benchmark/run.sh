#!/usr/bin/env bash
# The benchmark's contract entry point: build the benchmark from source
# inside the checkout (all of Go's caches under .bench_build/, nothing
# written outside the checkout) and run it with the driver's arguments.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
# Without go.mod this is not a checkout of the repository (the driver also
# runs the command in a directory holding only the benchmark's files):
# there is nothing to build, so fail before printing any result.
if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: no go.mod in $PWD; run from a checkout of the repository" >&2
	exit 1
fi
mkdir -p "$build"
env HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
	GOCACHE="$build/gocache" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOENV=off \
	go build -o "$build/reprowd-benchmark" ./benchmark
exec "$build/reprowd-benchmark" -data "$build/data" "$@"
