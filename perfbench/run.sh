#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, for example:
#
#   bash perfbench/run.sh --workload feed --seed 1 --seconds 10 --trace 0
#
# Build cache, temporary files and the binary stay in .bench_build/ at the
# root of the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
# The go command keeps its settings and telemetry counters under the user
# config directory; keep those inside the checkout too.
export XDG_CONFIG_HOME="$out/config"

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out" "$@"
