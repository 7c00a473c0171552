#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload gateway-mix --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build caches and outputs stay under
# .bench_build/ in the checkout; the Go toolchain is used offline.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="" \
  GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOTELEMETRY=off \
  HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
if ! (cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .) >&2; then
  echo "perfbench: build failed" >&2
  exit 1
fi
BENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)" \
  exec "$out/perfbench" --out "$out" "$@"
