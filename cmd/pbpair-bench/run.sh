#!/usr/bin/env bash
# Builds pbpair-bench from source in this checkout and runs it with the
# given arguments, for example
#
#   bash cmd/pbpair-bench/run.sh --workload fig5 --seed 1 --seconds 20 --trace 0
#
# The build cache, the compiler's temporary files and the binary go to
# $CARGO_TARGET_DIR (default .bench_build, relative to the checkout
# root), so nothing is written outside the checkout and no network is
# used.
set -euo pipefail
cd "$(dirname "$0")/../.."
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$PWD/$out ;; esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp GOENV=off \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C cmd/pbpair-bench build -o "$out/pbpair-bench" .
exec "$out/pbpair-bench" "$@"
