#!/usr/bin/env bash
# Builds the store benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash storebench/run.sh --workload hicr-jhtdb --seed 1 --seconds 25 --trace 0
#
# Every build artefact and the benchmark's scratch files stay under
# .bench_build/ in the current directory; nothing is fetched.
set -euo pipefail
root=$(pwd)
src=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$src" && go build -o "$build/storebench" .)
exec "$build/storebench" "$@"
