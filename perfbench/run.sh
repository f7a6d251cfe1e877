#!/usr/bin/env bash
# Builds the benchmark and the latchchard daemon from this checkout and runs
# one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload contour --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and the serve workload's daemon address
# files all stay under .bench_build/ in the checkout.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
# Keep the go command's cache, module path, temp files and config (telemetry)
# inside the checkout, and never let it fetch a toolchain.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local

(cd perfbench && go build -o "$build/bin/perfbench" .)
go build -o "$build/bin/latchchard" ./cmd/latchchard

# Pin the benchmark, and the daemons it starts, to the first CPU it may use,
# so the reference kernel it times between ops (see perfbench/refkernel.go)
# runs on the core the ops run on. Without taskset it runs unpinned.
pin=()
cpu="$(awk '/^Cpus_allowed_list/ { split($2, a, /[-,]/); print a[1] }' /proc/self/status)"
if command -v taskset >/dev/null && taskset -c "$cpu" true 2>/dev/null; then
	pin=(taskset -c "$cpu")
fi
exec "${pin[@]}" "$build/bin/perfbench" -root "$root" -daemon "$build/bin/latchchard" -workdir "$build" "$@"
