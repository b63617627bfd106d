#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it:
#
#   bash perfbench/run.sh --workload fleet_mixed --seed 1 --seconds 35 --trace 0
#
# Everything the build writes (Go build cache, binary, trace files) stays
# under .bench_build/ at the checkout root. The module replaces `repro`
# with the checkout itself, so the benchmark always measures the code
# beside it; outside a full checkout the build fails and so does the run.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out"

# The go command's cache, module path and config (telemetry) all live
# under .bench_build; it needs no network.
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath"
export XDG_CONFIG_HOME="$root/.bench_build/config"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=

# Two workers and GOMAXPROCS 2, never more than the machine has.
procs=$(nproc 2>/dev/null || echo 1)
if [ "$procs" -gt 2 ]; then procs=2; fi
export GOMAXPROCS="$procs"

go -C "$here" build -o "$out/perfbench" . >&2
cd "$root"
exec "$out/perfbench" -out "$out" "$@"
