#!/usr/bin/env bash
# Build the benchmark once per checkout, then run it. Everything the build
# leaves behind (binary, Go build cache, temp files) stays in .bench_build/
# at the root of the checkout.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$bench")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
(cd "$bench" && go build -o "$build/repro-bench" .)
exec "$build/repro-bench" "$@"
