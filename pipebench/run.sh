#!/usr/bin/env bash
# Builds the pipeline benchmark from the surrounding checkout and runs it.
#
#   bash pipebench/run.sh --workload ingest|fleet|observed-cfd --seed N --seconds S --trace 0|1
#   bash pipebench/run.sh compare PARENT.log CHANGE.log
#   bash pipebench/run.sh spread RUNS.log
#
# Everything the build writes (Go build cache, binary, traces) stays in
# .bench_build/ under the checkout root. Without the repository's sources
# next to this directory the build fails and the script exits non-zero.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build/pipebench"
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home" XDG_CACHE_HOME="$build/home/.cache" XDG_CONFIG_HOME="$build/home/.config"
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOPROXY=off GOFLAGS= GOTOOLCHAIN=local GOTELEMETRY=off
if ! (cd "$here" && go build -o "$build/pipebench" .) >&2; then
	echo "pipebench: build failed" >&2
	exit 2
fi
cd "$root"
exec "$build/pipebench" "$@"
