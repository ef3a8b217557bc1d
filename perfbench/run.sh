#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#   bash perfbench/run.sh --workload fit-ssd --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare OLD_DIR NEW_DIR
# Run from the repository root. Build outputs, the Go build cache and the go
# command's own config and telemetry files stay in .bench_build/ (or
# $CARGO_TARGET_DIR) of the working directory.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
  GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
