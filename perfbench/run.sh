#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then runs
# one workload:
#
#   bash perfbench/run.sh --workload lookup-zipf --seed 1 --seconds 10 --trace 0
#
# Every build product, cache and temporary file stays under .bench_build/ at
# the checkout root; traced runs write their trace under perfbench/out/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"

unset XDG_CONFIG_HOME XDG_CACHE_HOME GOFLAGS
export HOME="$build/home" GOPATH="$build/home/go" GOCACHE="$build/gocache" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
