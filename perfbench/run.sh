#!/usr/bin/env bash
# Builds lclserver, lcltool and the benchmark from source, then runs the
# benchmark with the given arguments from the repository root:
#
#   bash perfbench/run.sh --workload serve-batch --seed 1 --seconds 40 --trace 0
#
# Everything the build and the run write stays under the build
# directory ($CARGO_TARGET_DIR when set, else .bench_build): binaries,
# the go build cache, the sealed artifact, server logs, span files and
# results.jsonl.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/bin" "$build/tmp" "$build/home"
build="$(cd "$build" && pwd)"

export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
export GOENV=off

go build -o "$build/bin/" ./cmd/lclserver ./cmd/lcltool >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2

exec "$build/bin/perfbench" -build-dir "$build" "$@"
