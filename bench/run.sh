#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and
# the run write — Go's build cache, its temp files, the node's durable
# stores — stays under .bench_build/ in the checkout this script is in.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$(dirname "$here")/.bench_build
mkdir -p "$build/tmp" "$build/home"
export HOME=$build/home XDG_CACHE_HOME=$build/home/.cache XDG_CONFIG_HOME=$build/home/.config
export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod TMPDIR=$build/tmp
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOTELEMETRY=off
# Stamp the commit when the checkout is a usable git repository; build
# without the stamp when it is not.
go build -C "$here" -o "$build/revere-bench" . 2>/dev/null ||
	go build -C "$here" -buildvcs=false -o "$build/revere-bench" .
exec "$build/revere-bench" "$@"
