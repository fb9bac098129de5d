#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#   bash perfbench/run.sh --workload <lab-sweep|daemon-idle|wire-loopback|all> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Every build product, cache and temporary file stays under .bench_build/
# at the repository root. Fails (non-zero, no result line) outside a full
# badabing checkout.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
if [[ ! -f go.mod || ! -d internal/fleet || ! -f perfbench/go.mod ]]; then
	echo "perfbench: $root is not a badabing checkout" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
# XDG_CONFIG_HOME keeps the go command's environment file and telemetry
# counters inside the checkout too.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$build/config" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
