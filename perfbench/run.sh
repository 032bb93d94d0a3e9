#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash perfbench/run.sh --workload kv-twitter --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The Go build cache, module cache and
# temporary files stay under .bench_build/ in the checkout, and the
# build uses only the local toolchain and the repository's own sources.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" TMPDIR="$out/tmp"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0
# Fall back to the standard Go install location when go is not on PATH.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" run "$@"
