#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it there. The Go build cache lives in .bench_build/
# too, so nothing is read or written outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache" GOWORK=off
(cd "$root/bench" && go build -o "$root/.bench_build/edgebench" .)
cd "$root"
exec "$root/.bench_build/edgebench" "$@"
