#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources, then runs it:
#
#   bash perfbench/run.sh --workload cold-reach --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and traced runs' span files all stay under
# .bench_build/ at the checkout root. Without the module sources next to
# this directory the build fails and the script exits non-zero.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
cd "$root"
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
