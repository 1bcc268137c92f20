#!/usr/bin/env bash
# Builds the benchmark and the server it drives, inside the checkout, and
# runs the benchmark with the given arguments from the checkout's root.
# Everything the build writes — binaries, Go's build and module caches, its
# temporary and telemetry directories — lands in .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
(cd bench && go build -o "$build/x3bench" . && go build -o "$build/x3serve" x3/cmd/x3serve) >&2
exec "$build/x3bench" "$@"
