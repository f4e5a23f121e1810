#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build and the run write (Go caches, the binary, spill
# files, WAL directories, results) stays under bench/out/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
out="$PWD/out"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOENV=off GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$out/xdg" TMPDIR="$out/tmp"
go build -o "$out/sdbbench" .
exec "$out/sdbbench" "$@"
