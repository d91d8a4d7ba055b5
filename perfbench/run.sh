#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping the Go build
# cache, the generated corpus and the span dumps under .perfbench/ in
# the checkout. Arguments pass through to the benchmark binary:
#
#   bash perfbench/run.sh --workload eval-rgb --seed 1 --seconds 24 --trace 0
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
state="$root/.perfbench"
mkdir -p "$state/gocache" "$state/tmp"
export GOCACHE="$state/gocache" GOTMPDIR="$state/tmp" GOPATH="$state/gopath"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$state/perfbench" .)
cd "$root"
exec "$state/perfbench" -state "$state" "$@"
