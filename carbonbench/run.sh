#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout, then runs it with
# the given arguments. Run it from the root of the repository:
#
#   bash carbonbench/run.sh --workload sim-fleet --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and span dumps all stay under
# $CARGO_TARGET_DIR (default .bench_build), so the run writes nothing
# outside the checkout.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d carbonbench ]; then
	echo "carbonbench/run.sh: run it from the root of the repository (no go.mod here)" >&2
	exit 1
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
# With telemetry on (its default, "local"), the go command forks a detached
# sidecar process that outlives the build. Turn it off in the private
# config directory so the build leaves no process behind.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf 'off\n' >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$out/carbonbench" ./carbonbench >&2
exec "$out/carbonbench" --out "$out" "$@"
