#!/usr/bin/env bash
# Builds ringcast-bench from source and runs it with the given arguments.
# Everything the build writes (the Go build cache included) stays under
# .bench_build/ in the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/ringcast-bench" .)
cd "$root"
exec "$build/ringcast-bench" "$@"
