#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with the
# given arguments, from the root of a checkout:
#
#   bash perfbench/run.sh --workload serve-batch --seed 1 --seconds 30 --trace 0
#
# The build cache, temporary files and the binary stay inside .bench_build/
# so the benchmark reads and writes nothing outside the checkout. A failed
# build exits non-zero without printing a result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOMODCACHE="$out/gomodcache"
# The toolchain's own settings and counters live under the user config
# directory; point it into the build directory too.
(cd "$root/perfbench" && XDG_CONFIG_HOME="$out/config" go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out" "$@"
