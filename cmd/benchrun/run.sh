#!/usr/bin/env bash
# Builds cmd/benchrun and runs it from the root of a checkout, passing the
# arguments through:
#
#   bash cmd/benchrun/run.sh --workload cc-design --seed 1 --seconds 15 --trace 0
#   bash cmd/benchrun/run.sh -seed 1                 # every workload, both passes
#   bash cmd/benchrun/run.sh compare base.jsonl change.jsonl
#
# Everything the Go toolchain and the benchmark write stays under
# .bench_build/ in the checkout: build cache, binaries, scratch files and
# the appended records.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/cmd/benchrun/run.sh" ]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/cmd/benchrun" && go build -o "$out/bin/benchrun" .)
exec "$out/bin/benchrun" "$@"
