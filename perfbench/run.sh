#!/usr/bin/env bash
# Builds the ordxml benchmark from this checkout and runs one workload.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload ordered_read --seed 1 --seconds 15 --trace 0
#
# The Go build cache, temporary files, durable stores and span files stay
# under .bench_build/ in the checkout. Without the repository around it the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -work "$out" "$@"
