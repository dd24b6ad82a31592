#!/usr/bin/env bash
# Builds the benchmark program and secserved from this checkout, then runs one
# workload. Run from the repository root:
#
#   bash benchmark/run.sh --workload fig5-grid --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, temporary files, the service-mix result
# store and the traced run's span files all stay under .bench_build/.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/benchmark/go.mod" ] || [ ! -f "$root/go.mod" ]; then
	echo "run.sh: run from the repository root of a full checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=

go -C "$root/benchmark" build -o "$out/bench" . >&2
go build -o "$out/secserved" ./cmd/secserved >&2
exec "$out/bench" -secserved "$out/secserved" -out "$out" "$@"
