#!/usr/bin/env bash
# Builds the harness from source into .bench_build/ (the checkout-local build
# directory) and runs it from the checkout root. Everything the toolchain
# writes — build cache included — stays inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
# The checkout the accepting driver runs in is not a git repository, so the
# binary is not stamped; the commit is handed over when git knows it.
export BENCH_COMMIT="${BENCH_COMMIT:-$(git rev-parse HEAD 2>/dev/null || echo unknown)}"
(cd bench && go build -buildvcs=false -o "$build/idebench-bench" .)
exec "$build/idebench-bench" "$@"
