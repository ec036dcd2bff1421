#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload mh-classic --seed 1 --seconds 25 --trace 0
#
# Every build artefact (binary, Go build cache, temporary files) stays in
# .bench_build/ under the working directory; CARGO_TARGET_DIR is honoured
# as that directory's name when it is set.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/bin"

export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath
export GOMODCACHE=$out/gopath/pkg/mod GOTOOLCHAIN=local GOPROXY=off
export GOFLAGS= GOWORK=off GOENV=off CGO_ENABLED=0

bin=$out/bin/perfbench
tmp=$bin.$$
(cd "$root/perfbench" && go build -o "$tmp" .)
mv -f "$tmp" "$bin"
exec "$bin" "$@"
