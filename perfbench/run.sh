#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout, for example:
#
#   bash perfbench/run.sh --workload paper-hier --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache and any trace files stay under .bench_build/
# in the checkout. In a directory without the repository's sources the build
# fails and the script exits nonzero before printing a result.
set -euo pipefail
root=$PWD
out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
