#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash kbbench/run.sh --workload devloop --seed 1 --seconds 20 --trace 0
#
# Run from the root of the repository. The build cache, the binary,
# per-run data directories and span traces all live under .bench_build.
set -euo pipefail
root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/gocache" "${out}/tmp"
export GOCACHE="${out}/gocache" GOTMPDIR="${out}/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "${root}/kbbench" && go build -o "${out}/kbbench" .)
exec "${out}/kbbench" "$@"
