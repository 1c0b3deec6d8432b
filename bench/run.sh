#!/usr/bin/env bash
# Build the benchmark from the checkout's sources and run it.
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, and each child's data
# directory. Arguments are passed through to the binary (see README.md).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/pandawall" .) >&2
cd "$root"
exec "$out/pandawall" -data-root "$out/data" "$@"
