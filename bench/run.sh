#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Everything the build and the run write — Go's build
# cache, its temporary and per-user files, the servers' cache directories —
# lands under .bench_build/ in the current directory, the root of the
# checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal/serve ]; then
	echo "bench/run.sh: run from the root of a checkout of the repository (no go.mod and internal/ here)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod CGO_ENABLED=0

go build -o "$build/gmtbench" ./bench
exec "$build/gmtbench" "$@"
