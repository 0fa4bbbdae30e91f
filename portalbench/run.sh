#!/usr/bin/env bash
# Builds the portal benchmark from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash portalbench/run.sh --workload discovery --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write (Go build cache, temporary files,
# the Go command's own config and telemetry files, the binary, WAL
# directories, end-state records) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(cd "$root/portalbench" && go build -trimpath -buildvcs=false -o "$out/portalbench" .)
exec "$out/portalbench" "$@"
