#!/usr/bin/env bash
# Builds cmd/powersched and the benchmark driver from the checkout's
# source, then runs the driver with the caller's arguments:
#
#   bash perfbench/run.sh --workload solve-cold --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every build and run artifact (Go build
# cache, binaries, server state, span dumps) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/powersched" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (cmd/powersched and perfbench/ not found)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/home/go" GOMODCACHE="$out/home/go/pkg/mod"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off

go build -o "$out/powersched" ./cmd/powersched
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -bin "$out/powersched" -work "$out/run" "$@"
