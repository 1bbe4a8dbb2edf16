#!/usr/bin/env bash
# Builds the benchmark driver from the checkout's sources and runs it with
# the given arguments (see main.go). Run from the root of the checkout;
# every build and run artifact stays under .bench_build there.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's telemetry and env files, and
# pprof's settings, inside the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
