#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# benchmark/out/build/ and runs it from the root of the checkout with the
# given arguments. Everything go writes (build cache, temporary files, the
# binary) stays under benchmark/out/.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$here/out/build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOENV=off CGO_ENABLED=0
# go keeps telemetry counters under the user's configuration directory.
(cd "$here" && HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" go build -o "$build/repro-benchmark" .) >&2
cd "$(dirname "$here")"
exec "$build/repro-benchmark" --out "$here/out" "$@"
