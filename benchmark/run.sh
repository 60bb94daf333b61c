#!/usr/bin/env bash
# Builds the benchmark and the two served binaries from source into
# .bench_build/ at the root of the checkout, then runs the benchmark with the
# arguments given. Everything the Go toolchain writes (build cache, temporary
# files, its telemetry counters) is kept inside .bench_build/ too, and git
# does not look for a repository above the checkout.
set -euo pipefail

bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$bench_dir")
build="$root/.bench_build"

[ -f "$root/go.mod" ] || { echo "run.sh: $root holds no go.mod; run from a full checkout" >&2; exit 2; }

mkdir -p "$build/bin" "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local XDG_CONFIG_HOME="$build/config"
export GIT_CEILING_DIRECTORIES="$(dirname "$root")"

(cd "$root" && go build -o "$build/bin/" ./cmd/chet-serve ./cmd/chet-router)
(cd "$bench_dir" && go build -o "$build/bin/chet-benchmark" .)

cd "$root"
exec "$build/bin/chet-benchmark" "$@"
