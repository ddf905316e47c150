#!/usr/bin/env bash
# Builds quickseld, quickselrouter and the perfbench load generator from
# the checkout this is run in, then runs the load generator with the given
# arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload point-small --seed 1 --seconds 12 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in the
# checkout: the Go build cache, the binaries, daemon data directories and
# the span files of traced runs.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/quickseld" ]; then
	echo "run.sh: $root holds no quicksel source tree; run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false

# With telemetry in its default "local" mode, the go command spawns a
# detached upload process that can outlive this script. Turning it off in
# the private config directory keeps every process inside the run.
go telemetry off

go build -o "$out/bin/" ./cmd/quickseld ./cmd/quickselrouter
(cd perfbench && go build -o "$out/bin/perfbench" .)

sha=unknown
if git -C "$root" rev-parse --git-dir >/dev/null 2>&1; then
	sha=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
fi

exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/run" -git-sha "$sha" "$@"
