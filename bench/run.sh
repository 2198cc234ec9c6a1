#!/usr/bin/env bash
# Builds bschedd and the benchmark program (this directory) from source,
# then runs the benchmark with this script's arguments, e.g.
#
#   bash bench/run.sh --workload hit-zipf --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The Go build cache, the binaries, the
# daemons' cache directories and the traces all land under .bench_build
# in the current directory; nothing is written outside it.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
# With telemetry on, the go command forks a sidecar into a session of its
# own that can outlive this script; the mode file turns it off.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$out/bschedd" ./cmd/bschedd
(cd bench && go build -o "$out/bench" .)
exec "$out/bench" -bschedd "$out/bschedd" -work "$out/work" -out "$out/traces" "$@"
