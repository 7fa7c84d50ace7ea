#!/usr/bin/env bash
# Builds the benchmark and runs it from the root of the checkout with the
# arguments given: BENCHMARK.json's command. Everything the build writes —
# the Go build cache, its temporary files, the binary — stays under
# .bench_build/ in the checkout, so a run touches nothing outside it.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
