#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local \
	GOWORK=off GOSUMDB=off
go -C "$root/perfbench" build -o "$build/perfbench" . >&2
exec "$build/perfbench" --build-dir "$build" "$@"
