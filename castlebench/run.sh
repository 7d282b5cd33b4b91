#!/usr/bin/env bash
# Builds castlebench from the Castle sources in the current directory (the
# root of a Castle checkout) and runs it with the given arguments, e.g.
#
#   bash castlebench/run.sh --workload ssb-cape --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the binary,
# trace dumps) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/castle.go" || ! -f "$root/castlebench/go.mod" ]]; then
	echo "castlebench: run from the root of a Castle checkout" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(cd "$root/castlebench" && go build -o "$out/castlebench" .)
exec "$out/castlebench" "$@"
