#!/usr/bin/env bash
# Builds replicadb and the benchmark from this checkout, then runs one
# benchmark invocation. Run it from the checkout's root:
#
#   bash perfbench/run.sh --workload browse --seed 1 --seconds 20 --trace 0
#
# Every build output, cache and run file stays under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
go build -o "$out/bin/replicadb" ./cmd/replicadb >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -replicadb "$out/bin/replicadb" -dir "$out/run" "$@"
