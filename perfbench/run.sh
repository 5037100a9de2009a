#!/usr/bin/env bash
# Builds ibrd (from the checkout this runs in) and the benchmark into the
# build directory, then runs one benchmark invocation:
#
#   bash perfbench/run.sh --workload get-heavy --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Build output goes to stderr, so the last
# line of stdout is the JSON result. Everything the build writes (Go's build
# cache included) stays under $CARGO_TARGET_DIR, default .bench_build.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/ibrd || ! -f perfbench/go.mod ]]; then
  echo "perfbench: run from the repository root (needs go.mod, cmd/ibrd, perfbench/go.mod)" >&2
  exit 2
fi

out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$PWD/$out ;; esac
mkdir -p "$out/bin" "$out/tmp" "$out/home"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp TMPDIR=$out/tmp GOMODCACHE=$out/gomod
export HOME=$out/home XDG_CONFIG_HOME=$out/home GOENV=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
export GOTELEMETRY=off

go build -o "$out/bin/ibrd" ./cmd/ibrd >&2
(cd perfbench && go build -o "$out/bin/perfbench" ./cmd/perfbench) >&2

exec "$out/bin/perfbench" -build "$out" "$@"
