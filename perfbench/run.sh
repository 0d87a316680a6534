#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs one measurement:
#
#   bash perfbench/run.sh --workload mmu-small --seed 7 --seconds 20 --trace 0
#
# Everything it writes (the binary, the Go build cache, temporary server
# state, span files) goes under $CARGO_TARGET_DIR, default .bench_build.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
work=$out/perfbench
mkdir -p "$work/tmp"
export GOCACHE=$work/gocache GOMODCACHE=$work/gomod GOTMPDIR=$work/tmp TMPDIR=$work/tmp
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
# The go command keeps its settings and telemetry under the user config
# directory; point it into the work directory too.
XDG_CONFIG_HOME=$work/config go -C "$root/perfbench" build -o "$work/perfbench" .
exec "$work/perfbench" -workdir "$work" "$@"
