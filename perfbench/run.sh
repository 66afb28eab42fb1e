#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload tcp_pair --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build writes (Go build
# cache, module cache, the binary) stays under .bench_build in the
# current directory.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "perfbench: run from the repository root: no go.mod or internal/ in $root" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=mod \
	GOTELEMETRY=off XDG_CONFIG_HOME="$out/config"
# The source digest names the emulator code measured when the checkout
# carries no VCS metadata.
digest=$(find cmd internal go.mod -name '*.go' -o -name go.mod | LC_ALL=C sort | xargs cat | sha256sum | cut -c1-16)
(cd "$root/perfbench" && go build -ldflags "-X main.sourceDigest=$digest" -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
