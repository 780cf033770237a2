#!/usr/bin/env bash
# Builds the layer-budget benchmark and the programs it drives (krongen,
# kronserve) from the checkout's sources, then runs it. Run from the
# root of a kronlab checkout:
#
#   bash layerbench/run.sh --workload store --seed 1 --seconds 20 --trace 0
#
# Everything built or written stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/krongen" || ! -d "$root/cmd/kronserve" ]]; then
	echo "layerbench: run from the root of a kronlab checkout (go.mod, cmd/krongen, cmd/kronserve)" >&2
	exit 2
fi

out="$root/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
mkdir -p "$out/bin" "$out/work" "$out/tmp"

# Build output goes to stderr: the last stdout line is the result.
go build -o "$out/bin/" ./cmd/krongen ./cmd/kronserve >&2
(cd "$root/layerbench" && go build -o "$out/bin/layerbench" .) >&2

exec "$out/bin/layerbench" -bin "$out/bin" -work "$out/work" "$@"
