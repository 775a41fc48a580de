#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources in the current directory
# (the repository root) and runs it with the given arguments:
#
#   bash e2ebench/run.sh --workload shm_ours_64k --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, binary) stays under
# .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build/e2ebench"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOWORK=off \
	GOTOOLCHAIN=local
(cd "$root/e2ebench" && go build -o "$build/e2ebench" .) >&2
exec "$build/e2ebench" "$@"
