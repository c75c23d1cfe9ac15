#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
# Build outputs, the Go build cache, temporary files and results stay in .bench_build/
# at the checkout root. Usage:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" TMPDIR="$out/tmp" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
rev="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo none)"
cd "$root"
exec "$out/perfbench" --git-rev "$rev" "$@"
