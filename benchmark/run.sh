#!/usr/bin/env bash
# The one benchmark command: builds the harness inside the checkout
# (build outputs and Go caches go to .bench_build/) and runs it with the
# arguments given. See benchmark/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off
go build -C benchmark -o "$build/numastream-bench" .
exec "$build/numastream-bench" "$@"
